package route

import (
	"fmt"

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
func (dc *DupCache) Seen(k Key) bool { return dc.x.seen(dc.node, k) }

// Len returns the number of live marks this node holds.
func (dc *DupCache) Len() int { return dc.x.count(dc.node) }

// dupIndex is the duplicate-cache state of every node of one family:
// one record per live (origin, id) holding the set of nodes that have
// it marked, reached through a small open-addressed table, plus one log
// of all marks in time order. Every call first retires the log's head
// under the rule now − t ≥ Timeout, so a set bit is a live mark and the
// duplicate test is one bit test; a record whose last bit clears leaves
// the table.
type dupIndex struct {
	ord   int // position of the member caches on their Cores
	cfg   CacheConfig
	plane *Plane
	sim   *sim.Sim
	words int // bitset words per record

	// table is open-addressed with linear probing and kept at most half
	// full; a slot holds a record index + 1, 0 meaning empty.
	table []int32
	mask  uint32
	nrec  int // records in the table

	// recs holds the made records in fixed-size chunks that never move:
	// record r and its node set live in chunk recs[r>>dupRecShift] (see
	// rec and set). A removed record waits in free, all-zero, for the
	// next insert, so no chunk ever drains.
	recs []*recChunk
	made int32   // records made: the chunks' filled prefix
	free []int32 // recycled records, all-zero

	// log holds the n marks made and not yet retired, oldest at head;
	// the clock never runs backwards, so it is in time order. It is a
	// ring of len(log)<<dupChunkShift positions (len(log) a power of
	// two) in fixed-size chunks: position p is mark p&dupChunkMask of
	// chunk log[p>>dupChunkShift]. Only the chunks from the head's to the
	// tail's are held; the others are nil, and a drained chunk waits in
	// spare for the tail to need one again.
	log   []*dupChunk
	spare []*dupChunk
	head  int
	n     int

	live  []int32  // per node: live marks
	swept sim.Time // the clock at the last retire, for Audit
}

// dupRecord is one live key, how many nodes have it marked and when the
// first of them did; a record with live == 0 is free.
type dupRecord struct {
	key  Key
	live int32
	t0   sim.Time
}

// dupMark is one log entry: node marked rec at t. Eviction kills a mark
// in place by setting node to -1.
type dupMark struct {
	t    sim.Time
	rec  int32
	node int32
}

// A log chunk holds 4096 marks (64 KiB): a paper-scale log spans a few
// dozen, and a family that never holds more than a few hundred marks
// costs one. Half the size doubles the chunk allocations; twice the size
// costs every such small family 64 KiB more.
const (
	dupChunkShift = 12
	dupChunkLen   = 1 << dupChunkShift
	dupChunkMask  = dupChunkLen - 1
)

type dupChunk [dupChunkLen]dupMark

// A record chunk holds 256 records and their node sets: 10 KiB at 50
// nodes, 14 KiB at 150, 24 KiB at 500. Half the size doubles the chunk
// allocations of the 150- and 500-node families and saves at most 5 KiB
// in a family that never holds 128 records.
const (
	dupRecShift = 8
	dupRecLen   = 1 << dupRecShift
	dupRecMask  = dupRecLen - 1
)

// recChunk is dupRecLen records; record i's node set is
// bits[i*words : (i+1)*words].
type recChunk struct {
	bits []uint64
	recs [dupRecLen]dupRecord
}

func newDupIndex(ord int, cfg CacheConfig, p *Plane) *dupIndex {
	return &dupIndex{
		ord:   ord,
		cfg:   cfg,
		plane: p,
		sim:   p.sim,
		words: (p.med.NumNodes() + 63) / 64,
		table: make([]int32, 16),
		mask:  15,
		log:   make([]*dupChunk, 1),
		live:  make([]int32, p.med.NumNodes()),
	}
}

// hash spreads a key over the table. The table is a power of two, so
// the multiply-xor finisher keeps low bits well mixed.
func hash(k Key) uint32 {
	h := uint64(uint32(k.Origin))<<32 | uint64(k.ID)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// find probes for k: its slot and record if present, the insertion slot
// and -1 otherwise. The ≤1/2 load invariant guarantees an empty slot
// terminates every probe.
func (x *dupIndex) find(k Key) (slot uint32, rec int32) {
	i := hash(k) & x.mask
	for {
		r := x.table[i]
		if r == 0 {
			return i, -1
		}
		if x.rec(r-1).key == k {
			return i, r - 1
		}
		i = (i + 1) & x.mask
	}
}

// rec returns record r.
func (x *dupIndex) rec(r int32) *dupRecord { return &x.recs[r>>dupRecShift].recs[r&dupRecMask] }

// set returns record r's node set.
func (x *dupIndex) set(r int32) []uint64 {
	i := int(r&dupRecMask) * x.words
	return x.recs[r>>dupRecShift].bits[i : i+x.words : i+x.words]
}

// bit locates node's bit in rec's node set: the word and the mask.
func (x *dupIndex) bit(rec int32, node int) (*uint64, uint64) {
	c := x.recs[rec>>dupRecShift]
	return &c.bits[int(rec&dupRecMask)*x.words+node>>6], 1 << (node & 63)
}

// has reports whether node's bit is set in rec.
func (x *dupIndex) has(rec int32, node int) bool {
	w, b := x.bit(rec, node)
	return *w&b != 0
}

// retire pops every mark that has reached the timeout (and every dead
// mark in front of one that has not), clearing its bit.
func (x *dupIndex) retire() sim.Time {
	now := x.sim.Now()
	x.swept = now
	for x.n > 0 {
		m := x.at(0)
		if m.node >= 0 {
			if now-m.t < x.cfg.Timeout {
				break
			}
			x.clear(m.rec, int(m.node))
		}
		x.pop()
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

// pop drops the oldest mark, handing its chunk to spare once drained.
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
	_, rec := x.find(k)
	if rec < 0 {
		return nil, 0
	}
	return x.set(rec), x.rec(rec).t0 + x.cfg.Timeout
}

func (x *dupIndex) seen(node int, k Key) bool {
	x.retire()
	_, rec := x.find(k)
	return rec >= 0 && x.has(rec, node)
}

func (x *dupIndex) count(node int) int {
	x.retire()
	return int(x.live[node])
}

func (x *dupIndex) mark(node int, k Key) bool {
	now := x.retire()
	slot, rec := x.find(k)
	// The bit is tested before the cap: a duplicate evicts nothing.
	if rec >= 0 && x.has(rec, node) {
		return true
	}
	if int(x.live[node]) >= x.cfg.HardCap {
		x.evict(node)
		// Evicting may have emptied other records, and removing one
		// shifts table slots: probe again.
		slot, rec = x.find(k)
	}
	if rec < 0 {
		rec = x.insert(k, slot)
		x.rec(rec).t0 = now
	}
	w, b := x.bit(rec, node)
	*w |= b
	x.rec(rec).live++
	x.live[node]++
	x.push(dupMark{t: now, rec: rec, node: int32(node)})
	return false
}

// insert creates k's record at slot, the insertion point find reported,
// keeping the table at most half full.
func (x *dupIndex) insert(k Key, slot uint32) int32 {
	if 2*(x.nrec+1) > len(x.table) {
		x.growTable()
		slot, _ = x.find(k)
	}
	var rec int32
	if n := len(x.free); n > 0 {
		rec = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		rec = x.made
		if rec&dupRecMask == 0 {
			x.recs = append(x.recs, &recChunk{bits: make([]uint64, dupRecLen*x.words)})
		}
		x.made++
	}
	x.rec(rec).key = k
	x.table[slot] = rec + 1
	x.nrec++
	return rec
}

// growTable doubles the table and re-inserts every record. The table
// stops growing at the simulation's peak number of concurrently live
// floods, after which the index never allocates again.
func (x *dupIndex) growTable() {
	old := x.table
	x.table = make([]int32, 2*len(old))
	x.mask = uint32(len(x.table) - 1)
	for _, r := range old {
		if r == 0 {
			continue
		}
		i := hash(x.rec(r-1).key) & x.mask
		for x.table[i] != 0 {
			i = (i + 1) & x.mask
		}
		x.table[i] = r
	}
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
	w, b := x.bit(rec, node)
	*w &^= b
	x.live[node]--
	r := x.rec(rec)
	if r.live--; r.live == 0 {
		x.remove(rec)
	}
}

// remove takes the now-empty record out of the table by backward-shift
// deletion — every later member of the probe run that may move up does,
// so runs stay gap-free and need no tombstones — and recycles it.
func (x *dupIndex) remove(rec int32) {
	i, _ := x.find(x.rec(rec).key)
	for j := (i + 1) & x.mask; x.table[j] != 0; j = (j + 1) & x.mask {
		home := hash(x.rec(x.table[j]-1).key) & x.mask
		// The entry at j may fill the hole at i unless its home slot
		// lies in (i, j], cyclically.
		if (j-home)&x.mask >= (j-i)&x.mask {
			x.table[i] = x.table[j]
			i = j
		}
	}
	x.table[i] = 0
	x.nrec--
	*x.rec(rec) = dupRecord{}
	x.free = append(x.free, rec)
}

// evict kills node's oldest marks, in log order, down to three quarters
// of the hard cap, after the medium hands back the node's held copies:
// one of them may be a duplicate no longer.
func (x *dupIndex) evict(node int) {
	x.plane.med.Unabsorb(node)
	drop := int(x.live[node]) - x.cfg.HardCap*3/4
	for i := 0; drop > 0; i++ {
		if m := x.at(i); int(m.node) == node {
			x.clear(m.rec, node)
			m.node = -1
			drop--
		}
	}
}
