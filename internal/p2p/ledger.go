package p2p

// QueryLedger records which servents of one network have handled each
// query: rule 1's "forward or respond at most once" and the random
// walker's "answer at most once" are one bit test in it. It is
// flood-major, like the route layer's duplicate index: one record per
// query, its key and a bitset over the network's n nodes, 8 + 8⌈n/64⌉
// bytes however many servents the query reaches, where a per-servent
// set pays a map entry at each. Marks never expire, so a servent never
// handles a query twice, whatever the horizon. Every servent of a
// network shares one ledger; replications never share one.
type QueryLedger struct {
	words int // bitset words per record

	// table is open-addressed with linear probing and kept at most half
	// full; a slot holds a record index + 1, 0 meaning empty.
	table []int32
	mask  uint32

	// chunks holds the records in fixed-size chunks that never move:
	// record r is 1+words words of chunk r>>ledgerChunkShift, its key
	// first and its bitset after (see record).
	chunks [][]uint64
	made   int32 // records made: the chunks' filled prefix
}

// A chunk holds 256 records: 2.5 KiB at 50 nodes, 8 KiB at 150 and
// 18 KiB at 500. Growing one slice instead would copy every bitset at
// each doubling.
const (
	ledgerChunkShift = 8
	ledgerChunkLen   = 1 << ledgerChunkShift
	ledgerChunkMask  = ledgerChunkLen - 1
)

// NewQueryLedger returns an empty ledger for a network of nodes nodes.
func NewQueryLedger(nodes int) *QueryLedger {
	return &QueryLedger{words: (nodes + 63) / 64, table: make([]int32, 16), mask: 15}
}

// mark records that node has handled query k and reports whether it
// already had.
func (l *QueryLedger) mark(node int, k uint64) bool {
	slot := l.find(k)
	var rec []uint64
	if r := l.table[slot]; r != 0 {
		rec = l.record(r - 1)
	} else {
		rec = l.insert(k, slot)
	}
	w, b := &rec[1+node>>6], uint64(1)<<(node&63)
	had := *w&b != 0
	*w |= b
	return had
}

// find probes for k: its slot if present, else the slot an insert would
// take. The ≤1/2 load invariant guarantees an empty slot ends every
// probe.
func (l *QueryLedger) find(k uint64) uint32 {
	i := ledgerHash(k) & l.mask
	for r := l.table[i]; r != 0 && l.record(r - 1)[0] != k; r = l.table[i] {
		i = (i + 1) & l.mask
	}
	return i
}

// record returns record r: its key, then its bitset.
func (l *QueryLedger) record(r int32) []uint64 {
	n := 1 + l.words
	i := int(r&ledgerChunkMask) * n
	return l.chunks[r>>ledgerChunkShift][i : i+n : i+n]
}

// insert creates k's record at slot, the empty slot find reported,
// keeping the table at most half full.
func (l *QueryLedger) insert(k uint64, slot uint32) []uint64 {
	if 2*(int(l.made)+1) > len(l.table) {
		l.grow()
		slot = l.find(k)
	}
	r := l.made
	if int(r>>ledgerChunkShift) == len(l.chunks) {
		l.chunks = append(l.chunks, make([]uint64, ledgerChunkLen*(1+l.words)))
	}
	l.made++
	l.table[slot] = r + 1
	rec := l.record(r)
	rec[0] = k
	return rec
}

// grow doubles the table and re-inserts every record.
func (l *QueryLedger) grow() {
	l.table = make([]int32, 2*len(l.table))
	l.mask = uint32(len(l.table) - 1)
	for r := int32(0); r < l.made; r++ {
		l.table[l.find(l.record(r)[0])] = r + 1
	}
}

// ledgerHash spreads a query key over the table (the murmur3 64-bit
// finisher): queryKey puts the origin in the high half, and the table
// indexes by low bits.
func ledgerHash(k uint64) uint32 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return uint32(k)
}
