// Package marks is the keyed node-set table behind the route layer's
// duplicate caches and the overlay's query ledger: both ask "has node n
// handled message (origin, id)?", and both answer it flood-major, with
// one record per message holding the set of nodes that have it.
package marks

import (
	"fmt"
	"slices"
)

// Index maps 64-bit keys to records: the key, a set over the index's
// nodes, and a value V the caller's policy keeps (a pointer-free struct,
// so the chunks stay out of the collector's scan). When a record is made
// and when it goes is the policy's; the index finds, inserts, removes.
type Index[V comparable] struct {
	words int // set words per record

	// table is open-addressed with linear probing and kept at most half
	// full; a slot holds a record number + 1, 0 meaning empty.
	table []int32
	mask  uint32
	n     int // records in the table

	// chunks never move, so growing the index copies table slots, never
	// node sets; a removed record waits on free, all-zero, for the next
	// insert.
	chunks []chunk[V]
	made   int32 // records made: the chunks' filled prefix
	free   []int32
	onFree []bool // Audit's scratch
}

// chunkLen is how many records one chunk holds: record r is entry
// r%chunkLen of chunk r/chunkLen. Keys and sets take 4 KiB a chunk at 50
// nodes, 8 KiB at 150 and 18 KiB at 500; half the size doubles the chunk
// allocations of the larger networks.
const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// chunk is chunkLen records: record i's key is data[i*(1+words)], its
// node set the words after it (so a probe that finds the key has the
// bit's cache line), and its value vals[i].
type chunk[V comparable] struct {
	data []uint64
	vals []V
}

// Make returns an empty index over nodes nodes.
func Make[V comparable](nodes int) Index[V] {
	return Index[V]{words: (nodes + 63) / 64, table: make([]int32, 16), mask: 15}
}

// Pack is the key of message (origin, id): the origin in the high half.
func Pack(origin int, id uint32) uint64 { return uint64(origin)<<32 | uint64(id) }

// hash spreads a key over the table, which indexes by its low bits (the
// murmur3 64-bit finisher).
func hash(k uint64) uint32 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return uint32(k)
}

// Find probes for k: its slot and record if present, the slot an insert
// would take and -1 otherwise. The ≤1/2 load invariant guarantees an
// empty slot ends every probe.
func (x *Index[V]) Find(k uint64) (slot uint32, r int32) {
	for i := hash(k) & x.mask; ; i = (i + 1) & x.mask {
		if r := x.table[i]; r == 0 || x.Key(r-1) == k {
			return i, r - 1
		}
	}
}

// offset is where record r starts in its chunk's data.
func (x *Index[V]) offset(r int32) int { return int(r&chunkMask) * (1 + x.words) }

// Key returns record r's key.
func (x *Index[V]) Key(r int32) uint64 { return x.chunks[r>>chunkShift].data[x.offset(r)] }

// Set returns record r's node set.
func (x *Index[V]) Set(r int32) []uint64 {
	i := x.offset(r) + 1
	return x.chunks[r>>chunkShift].data[i : i+x.words : i+x.words]
}

// Val returns record r's value.
func (x *Index[V]) Val(r int32) *V { return &x.chunks[r>>chunkShift].vals[r&chunkMask] }

// Bit locates node's bit in record r's set: the word and the mask.
func (x *Index[V]) Bit(r int32, node int) (*uint64, uint64) {
	return &x.chunks[r>>chunkShift].data[x.offset(r)+1+node>>6], 1 << (node & 63)
}

// Has reports whether node's bit is set in record r.
func (x *Index[V]) Has(r int32, node int) bool {
	w, b := x.Bit(r, node)
	return *w&b != 0
}

// Len returns the number of records in the table.
func (x *Index[V]) Len() int { return x.n }

// Made returns the number of records made, free ones included: every
// record number is below it.
func (x *Index[V]) Made() int32 { return x.made }

// Insert creates k's record, set and value zero, at slot: where Find
// put k, with nothing inserted or removed since.
func (x *Index[V]) Insert(k uint64, slot uint32) int32 {
	if 2*(x.n+1) > len(x.table) {
		x.grow()
		slot, _ = x.Find(k)
	}
	r := x.made
	if n := len(x.free); n > 0 {
		r, x.free = x.free[n-1], x.free[:n-1]
	} else if x.made++; r&chunkMask == 0 {
		x.chunks = append(x.chunks, chunk[V]{make([]uint64, chunkLen*(1+x.words)), make([]V, chunkLen)})
	}
	x.chunks[r>>chunkShift].data[x.offset(r)] = k
	x.table[slot] = r + 1
	x.n++
	return r
}

// grow doubles the table and re-inserts every record. The table stops
// growing at the peak number of records held at once.
func (x *Index[V]) grow() {
	old := x.table
	x.table = make([]int32, 2*len(old))
	x.mask = uint32(len(x.table) - 1)
	for _, r := range old {
		if r != 0 {
			slot, _ := x.Find(x.Key(r - 1))
			x.table[slot] = r
		}
	}
}

// Remove takes record r out of the table by backward-shift deletion —
// every later member of the probe run that may move up does, so runs
// stay gap-free and need no tombstones — zeroes it and puts it on the
// free list.
func (x *Index[V]) Remove(r int32) {
	i, _ := x.Find(x.Key(r))
	for j := (i + 1) & x.mask; x.table[j] != 0; j = (j + 1) & x.mask {
		home := hash(x.Key(x.table[j]-1)) & x.mask
		// The entry at j may fill the hole at i unless its home slot
		// lies in (i, j], cyclically.
		if (j-home)&x.mask >= (j-i)&x.mask {
			x.table[i] = x.table[j]
			i = j
		}
	}
	x.table[i] = 0
	x.n--
	clear(x.Set(r))
	x.chunks[r>>chunkShift].data[x.offset(r)] = 0
	*x.Val(r) = *new(V)
	x.free = append(x.free, r)
}

// Audit reports each breach of the table-reach rule: every record not
// on the free list is found by probing for its key, every table slot
// names such a record, and every free record is listed once and
// all-zero — no ghost hit from a recycled record, no key lost behind a
// gap in a probe run. It reads only, and once its scratch has grown to
// the index's size it allocates nothing.
func (x *Index[V]) Audit(report func(rule, detail string)) {
	x.onFree = slices.Grow(x.onFree[:0], int(x.made))[:x.made]
	clear(x.onFree)
	held := int(x.made)
	for _, r := range x.free {
		if r < 0 || r >= x.made || x.onFree[r] || x.Key(r) != 0 || *x.Val(r) != *new(V) || slices.ContainsFunc(x.Set(r), func(w uint64) bool { return w != 0 }) {
			report("table-reach", fmt.Sprintf("free record %d is listed twice, never made or not zeroed", r))
		} else {
			x.onFree[r] = true
			held--
		}
	}
	slots, wild := 0, false
	for i, r := range x.table {
		if r != 0 {
			slots++
		}
		if r < 0 || r > x.made || r > 0 && x.onFree[r-1] {
			report("table-reach", fmt.Sprintf("slot %d names record %d, which is not held", i, r-1))
			wild = wild || r < 0 || r > x.made
		}
	}
	// Probe for held records, once no slot names one past the chunks.
	for r := int32(0); r < x.made && !wild; r++ {
		if x.onFree[r] {
			continue
		}
		if _, found := x.Find(x.Key(r)); found != r {
			report("table-reach", fmt.Sprintf("record %d (key %#x) not reached by its key (probe found %d)", r, x.Key(r), found))
		}
	}
	if slots != held || x.n != held {
		report("table-reach", fmt.Sprintf("%d slots occupied, %d records counted, %d of %d records held", slots, x.n, held, x.made))
	}
}
