package route

import (
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
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

// DefaultSeenCacheCap is the SeenCacheCap every protocol's Config
// defaults to; a node's cache is bounded at twice that many live marks
// (CacheConfig.HardCap), far above anything the paper-scale scenarios
// reach, so evicting a fresh mark is a storm-only safety net.
const (
	DefaultSeenCacheCap = 4096
	DefaultHardCap      = 2 * DefaultSeenCacheCap
)

// withDefaults fills an unset bound.
func (c CacheConfig) withDefaults() CacheConfig {
	if c.HardCap <= 0 {
		c.HardCap = DefaultHardCap
	}
	return c
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

// NewDupCache creates core's node's handle on the plane's index for
// caches of this configuration created at this position on their Core
// (a router creates its caches in a fixed order, so position plus
// configuration names the family), and registers it for the core's
// SeenEntries/SeenBound accounting.
func NewDupCache(core *Core, cfg CacheConfig) *DupCache {
	dc := &DupCache{x: core.plane.dupIndex(len(core.caches), cfg.withDefaults()), node: core.id}
	core.caches = append(core.caches, dc)
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

// Holders returns the nodes holding k marked (a bitset valid until the
// next call) and an instant before which none of those marks expires.
func (dc *DupCache) Holders(k Key) (set []uint64, until sim.Time) {
	x := dc.x
	x.retire()
	_, rec := x.find(k)
	if rec < 0 {
		return nil, 0
	}
	return x.bits[int(rec)*x.words : int(rec+1)*x.words], x.recs[rec].t0 + x.cfg.Timeout
}

// Absorbs declares that a frame of kind whose key a node holds marked
// only counts a duplicate there, and nothing at its origin, and installs
// the plane's answer on med (radio.Inert); evictions then hand the
// evicted node's held copies back to med first.
func (dc *DupCache) Absorbs(kind netif.PacketKind, med *radio.Medium) {
	p := dc.x.plane
	p.absorb[kind] = dc
	if p.onEvict == nil {
		p.onEvict = med.Unabsorb
		med.SetAbsorber(p.inert)
	}
}

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

	recs []dupRecord
	bits []uint64 // record r's node set is bits[r*words : (r+1)*words]
	free []int32  // recycled records, all-zero

	// log is a ring (power-of-two capacity) of the n marks made and not
	// yet retired, oldest at head; the clock never runs backwards, so it
	// is in time order.
	log  []dupMark
	head int
	n    int

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

func newDupIndex(ord int, cfg CacheConfig, p *Plane) *dupIndex {
	return &dupIndex{
		ord:   ord,
		cfg:   cfg,
		plane: p,
		sim:   p.sim,
		words: (p.nodes + 63) / 64,
		table: make([]int32, 16),
		mask:  15,
		log:   make([]dupMark, 16),
		live:  make([]int32, p.nodes),
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
		if x.recs[r-1].key == k {
			return i, r - 1
		}
		i = (i + 1) & x.mask
	}
}

// bit locates node's bit in rec's node set: the word and the mask.
func (x *dupIndex) bit(rec int32, node int) (*uint64, uint64) {
	return &x.bits[int(rec)*x.words+node>>6], 1 << (node & 63)
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
		m := x.log[x.head]
		if m.node >= 0 {
			if now-m.t < x.cfg.Timeout {
				break
			}
			x.clear(m.rec, int(m.node))
		}
		x.head = (x.head + 1) & (len(x.log) - 1)
		x.n--
	}
	return now
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
		x.recs[rec].t0 = now
	}
	w, b := x.bit(rec, node)
	*w |= b
	x.recs[rec].live++
	x.live[node]++
	if x.n == len(x.log) {
		x.growLog()
	}
	x.log[(x.head+x.n)&(len(x.log)-1)] = dupMark{t: now, rec: rec, node: int32(node)}
	x.n++
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
		rec = int32(len(x.recs))
		x.recs = append(x.recs, dupRecord{})
		x.bits = append(x.bits, make([]uint64, x.words)...)
	}
	x.recs[rec].key = k
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
		i := hash(x.recs[r-1].key) & x.mask
		for x.table[i] != 0 {
			i = (i + 1) & x.mask
		}
		x.table[i] = r
	}
}

// growLog doubles the ring, unrolling it so the oldest mark sits at 0.
func (x *dupIndex) growLog() {
	grown := make([]dupMark, 2*len(x.log))
	k := copy(grown, x.log[x.head:])
	copy(grown[k:], x.log[:x.head])
	x.log, x.head = grown, 0
}

// clear unsets node's bit in rec, removing the record with its last bit.
func (x *dupIndex) clear(rec int32, node int) {
	w, b := x.bit(rec, node)
	*w &^= b
	x.live[node]--
	r := &x.recs[rec]
	if r.live--; r.live == 0 {
		x.remove(rec)
	}
}

// remove takes the now-empty record out of the table by backward-shift
// deletion — every later member of the probe run that may move up does,
// so runs stay gap-free and need no tombstones — and recycles it.
func (x *dupIndex) remove(rec int32) {
	i, _ := x.find(x.recs[rec].key)
	for j := (i + 1) & x.mask; x.table[j] != 0; j = (j + 1) & x.mask {
		home := hash(x.recs[x.table[j]-1].key) & x.mask
		// The entry at j may fill the hole at i unless its home slot
		// lies in (i, j], cyclically.
		if (j-home)&x.mask >= (j-i)&x.mask {
			x.table[i] = x.table[j]
			i = j
		}
	}
	x.table[i] = 0
	x.nrec--
	x.recs[rec] = dupRecord{}
	x.free = append(x.free, rec)
}

// evict kills node's oldest marks, in log order, down to three quarters
// of the hard cap, after the plane's eviction hook (DupCache.Absorbs).
func (x *dupIndex) evict(node int) {
	if x.plane.onEvict != nil {
		x.plane.onEvict(node)
	}
	drop := int(x.live[node]) - x.cfg.HardCap*3/4
	for i := x.head; drop > 0; i = (i + 1) & (len(x.log) - 1) {
		if m := &x.log[i]; int(m.node) == node {
			x.clear(m.rec, node)
			m.node = -1
			drop--
		}
	}
}
