package route

import (
	"fmt"
	"math"

	"manetp2p/internal/marks"
	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// Key identifies one broadcast (or one discovery round) in a duplicate
// cache: who originated it and its per-origin sequence number.
type Key struct {
	Origin int
	ID     uint32
}

// CacheConfig bounds one duplicate cache. A key a node has marked is a
// duplicate at that node while the mark is younger than Timeout. A node
// already holding HardCap live marks loses its oldest quarter before it
// takes another, so memory stays bounded even under a broadcast storm
// that never lets anything expire.
type CacheConfig struct {
	Timeout sim.Time
	HardCap int
}

// DefaultCacheConfig is the duplicate-cache bound every router's
// DefaultConfig starts from: a mark lives 30 s, and a node holds at most
// 8192 live marks, far above anything the paper-scale scenarios reach,
// so evicting a fresh mark is a storm-only safety net.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{Timeout: 30 * sim.Second, HardCap: 8192}
}

// DupCache is one node's duplicate-suppression cache behind the paper's
// controlled broadcast (§5): remember each (origin, id) for a while,
// drop re-arrivals. One cache, one expiry and eviction policy, shared by
// all four protocols.
//
// It is a handle — an index and a node id. The state of every node's
// cache of one family lives in one flood-major dupIndex on the
// simulation's Plane, because the ~100 receptions one flood causes
// arrive back to back at ~100 different nodes: in one shared record they
// touch the same cache lines, in per-node tables each one misses.
//
// A mark ages from the first time the node marked the key: marking a key
// that is still a duplicate leaves its age alone, as RFC 3561 §6.3
// buffers an RREQ id for PATH_DISCOVERY_TIME from first receipt. (Only
// Bcaster.Handle with suppression disabled marks a live duplicate.)
type DupCache struct {
	x    *dupIndex
	node int
}

// NewDupCache creates core's node's cache for frames of kind: a handle
// on the plane's index for caches of this configuration made at this
// position on their Core (a router makes its caches in a fixed order, so
// position plus configuration names the family). A kind but PktNone
// promises that the router only counts a duplicate for a frame of kind
// whose key the node holds, and ignores it at its origin, so the medium
// settles those receptions without the router (Plane.inert).
func NewDupCache(core *Core, kind netif.PacketKind, cfg CacheConfig) *DupCache {
	if cfg.Timeout <= 0 || cfg.HardCap <= 0 {
		// Unreachable from input: every router's cache bound comes from DefaultCacheConfig.
		panic(fmt.Sprintf("route: duplicate cache bound %+v is not positive", cfg))
	}
	p := core.plane
	dc := &DupCache{x: p.dupIndex(len(core.caches), cfg), node: core.id}
	core.caches = append(core.caches, dc)
	if kind != netif.PktNone {
		if y := p.absorb[kind]; y != nil && y != dc.x {
			// Unreachable from input: each router declares one cache per frame kind, and a plane carries one router.
			panic(fmt.Sprintf("route: two duplicate-cache families declared for packet kind %d", kind))
		}
		p.absorb[kind] = dc.x
	}
	return dc
}

// Mark records k as seen by this node now and reports whether it already
// was: true means a duplicate, and changes nothing.
func (dc *DupCache) Mark(k Key) bool { return dc.x.mark(dc.node, k) }

// Seen reports whether this node marked k within the cache timeout,
// without marking it.
func (dc *DupCache) Seen(k Key) bool {
	dc.x.retire()
	_, rec := dc.x.recs.Find(marks.Pack(k.Origin, k.ID))
	return rec >= 0 && dc.x.recs.Has(rec, dc.node)
}

// Len returns the number of live marks this node holds.
func (dc *DupCache) Len() int {
	dc.x.retire()
	return int(dc.x.live[dc.node])
}

// dupIndex is the duplicate-cache state of every node of one family:
// one record per live (origin, id) in a marks.Index, holding the set of
// nodes that have it marked, plus one log of all marks in time order.
// Every call first retires the log's head under the rule
// now − t ≥ Timeout, so a set bit is a live mark and the duplicate test
// is one bit test; a record whose last bit clears leaves the index.
type dupIndex struct {
	ord   int // position of the member caches on their Cores
	cfg   CacheConfig
	plane *Plane
	sim   *sim.Sim
	recs  marks.Index[dupVal]

	// log holds the n entries made and not yet retired, oldest at head;
	// the clock never runs backwards, so it is in time order, each entry
	// timed relative to the one before it: headT and tailT are the
	// instants of the head entry and the tail entry. It is a ring of
	// len(log)<<dupChunkShift positions (len(log) a power of two) in
	// fixed-size chunks: position p is entry p&dupChunkMask of chunk
	// log[p>>dupChunkShift]. Only the chunks from the head's to the
	// tail's are held; the others are nil, and a drained chunk waits in
	// spare for the tail to need one again.
	log   []*dupChunk
	spare []*dupChunk
	head  int
	n     int
	headT sim.Time
	tailT sim.Time

	live   []int32  // per node: live marks
	swept  sim.Time // the clock at the last retire, for Audit
	column []int32  // Audit's scratch: the records each node is set in
}

// dupVal is a record's value: how many nodes hold its key marked (a
// record is removed at 0) and when the first of them marked it.
type dupVal struct {
	live int32
	t0   sim.Time
}

// dupMark is one log entry, 8 bytes: node marked rec dt microseconds
// after the entry before it. Eviction kills a mark in place by setting
// rec to dupDead; it keeps its dt. A gap of more than 65,535 µs between
// two entries is bridged by skip entries (rec == dupSkip), each holding
// a gap of up to 2^32−1 µs in node<<16 | dt. A node id fits in 16 bits
// because Scenario.Validate caps NumNodes at 1<<16, and newDupIndex
// refuses a larger medium.
type dupMark struct {
	rec  int32
	node uint16
	dt   uint16
}

const (
	dupDead int32 = -1 // an evicted mark
	dupSkip int32 = -2 // a gap the entry after it does not hold
)

// gap is the time from the entry before m to m.
func (m dupMark) gap() sim.Time {
	if m.rec == dupSkip {
		return sim.Time(m.node)<<16 | sim.Time(m.dt)
	}
	return sim.Time(m.dt)
}

// A log chunk holds 4096 entries (32 KiB): a paper-scale log spans a few
// dozen, and a family that never holds more than a few hundred marks
// costs one. Half the size doubles the chunk allocations; twice the size
// costs every such small family 32 KiB more.
const (
	dupChunkShift = 12
	dupChunkLen   = 1 << dupChunkShift
	dupChunkMask  = dupChunkLen - 1
)

type dupChunk [dupChunkLen]dupMark

func newDupIndex(ord int, cfg CacheConfig, p *Plane) *dupIndex {
	nodes := p.med.NumNodes()
	if nodes > 1<<16 {
		// Unreachable from input: Scenario.Validate caps NumNodes at 1<<16.
		panic(fmt.Sprintf("route: %d nodes overflow a duplicate-log entry's 16-bit node id", nodes))
	}
	return &dupIndex{
		ord:   ord,
		cfg:   cfg,
		plane: p,
		sim:   p.sim,
		recs:  marks.Make[dupVal](nodes),
		log:   make([]*dupChunk, 1),
		live:  make([]int32, nodes),
	}
}

// retire pops every entry that has reached the timeout, clearing the
// bit of each live mark among them. The log is in time order, so the
// head's instant alone says whether anything is due.
func (x *dupIndex) retire() sim.Time {
	now := x.sim.Now()
	x.swept = now
	for x.n > 0 && now-x.headT >= x.cfg.Timeout {
		if m := x.at(0); m.rec >= 0 {
			x.clear(m.rec, int(m.node))
		}
		if x.pop(); x.n > 0 {
			x.headT += x.at(0).gap()
		}
	}
	return now
}

// at returns the log's i-th oldest mark.
func (x *dupIndex) at(i int) *dupMark {
	p := x.pos(i)
	return &x.log[p>>dupChunkShift][p&dupChunkMask]
}

// pos is the ring position of the log's i-th oldest mark.
func (x *dupIndex) pos(i int) int { return (x.head + i) & (len(x.log)<<dupChunkShift - 1) }

// pop drops the oldest entry, handing its chunk to spare once drained.
// An emptied log rewinds to the start of the head's chunk, so filling
// it again takes no more chunks than filling it first did.
func (x *dupIndex) pop() {
	c := x.head >> dupChunkShift
	x.head = x.pos(1)
	if x.head>>dupChunkShift != c {
		x.spare = append(x.spare, x.log[c])
		x.log[c] = nil
	}
	if x.n--; x.n == 0 {
		x.head &^= dupChunkMask
	}
}

// logMark appends node's mark of rec at now, after the skip entries
// that bridge a gap from the tail too long for its dt.
func (x *dupIndex) logMark(rec int32, node int, now sim.Time) {
	if x.n == 0 {
		x.headT, x.tailT = now, now
	}
	gap := now - x.tailT
	for gap > math.MaxUint16 {
		skip := min(gap, math.MaxUint32)
		x.push(dupMark{rec: dupSkip, node: uint16(skip >> 16), dt: uint16(skip)})
		gap -= skip
	}
	x.push(dupMark{rec: rec, node: uint16(node), dt: uint16(gap)})
	x.tailT = now
}

// push appends m at the tail. A tail entering a chunk not held takes a
// spare one, or allocates it; a tail about to enter the head's chunk
// doubles the ring first. Nothing is copied but chunk pointers.
func (x *dupIndex) push(m dupMark) {
	if x.head&dupChunkMask+x.n == len(x.log)<<dupChunkShift {
		x.growLog()
	}
	p := x.pos(x.n)
	c := &x.log[p>>dupChunkShift]
	if *c == nil {
		if k := len(x.spare); k > 0 {
			*c, x.spare = x.spare[k-1], x.spare[:k-1]
		} else {
			*c = new(dupChunk)
		}
	}
	(*c)[p&dupChunkMask] = m
	x.n++
}

// holders returns the nodes holding k marked (a bitset valid until the
// next call) and an instant before which none of those marks expires.
func (x *dupIndex) holders(k Key) (set []uint64, until sim.Time) {
	x.retire()
	_, rec := x.recs.Find(marks.Pack(k.Origin, k.ID))
	if rec < 0 {
		return nil, 0
	}
	return x.recs.Set(rec), x.recs.Val(rec).t0 + x.cfg.Timeout
}

func (x *dupIndex) mark(node int, k Key) bool {
	now := x.retire()
	key := marks.Pack(k.Origin, k.ID)
	slot, rec := x.recs.Find(key)
	// The bit is tested before the cap: a duplicate evicts nothing.
	if rec >= 0 && x.recs.Has(rec, node) {
		return true
	}
	if int(x.live[node]) >= x.cfg.HardCap {
		x.evict(node)
		// Evicting may have emptied other records, and removing one
		// shifts table slots: probe again.
		slot, rec = x.recs.Find(key)
	}
	if rec < 0 {
		rec = x.recs.Insert(key, slot)
		x.recs.Val(rec).t0 = now
	}
	w, b := x.recs.Bit(rec, node)
	*w |= b
	x.recs.Val(rec).live++
	x.live[node]++
	x.logMark(rec, node, now)
	return false
}

// growLog doubles the ring of chunks, unrolling it so the head's chunk
// is the first.
func (x *dupIndex) growLog() {
	grown := make([]*dupChunk, 2*len(x.log))
	h := x.head >> dupChunkShift
	k := copy(grown, x.log[h:])
	copy(grown[k:], x.log[:h])
	x.log, x.head = grown, x.head&dupChunkMask
}

// clear unsets node's bit in rec, removing the record with its last bit.
func (x *dupIndex) clear(rec int32, node int) {
	w, b := x.recs.Bit(rec, node)
	*w &^= b
	x.live[node]--
	v := x.recs.Val(rec)
	if v.live--; v.live == 0 {
		x.recs.Remove(rec)
	}
}

// evict kills node's oldest marks, in log order, down to three quarters
// of the hard cap, after the medium hands back the node's held copies:
// one of them may be a duplicate no longer.
func (x *dupIndex) evict(node int) {
	x.plane.med.Unabsorb(node)
	drop := int(x.live[node]) - x.cfg.HardCap*3/4
	for i := 0; drop > 0; i++ {
		if m := x.at(i); m.rec >= 0 && int(m.node) == node {
			x.clear(m.rec, node)
			m.rec = dupDead
			drop--
		}
	}
}
