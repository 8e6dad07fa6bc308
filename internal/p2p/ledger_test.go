package p2p

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"manetp2p/internal/marks"
)

// has reports whether node has handled the query origin issued as qid,
// without marking it.
func (l *QueryLedger) has(node, origin int, qid uint32) bool {
	_, r := l.Find(marks.Pack(origin, qid))
	return r >= 0 && l.Has(r, node)
}

// forget drops the record of the query origin issued as qid and keeps
// the table and chunks, so a benchmark replays its queries without
// growth.
func (l *QueryLedger) forget(origin int, qid uint32) {
	if _, r := l.Find(marks.Pack(origin, qid)); r >= 0 {
		l.Remove(r)
	}
}

// ledgerModelRun drives a ledger of n nodes and a per-node
// map[uint64]struct{} model (the set each servent kept before the
// ledger) through the operation stream next draws (next(k) is a choice
// in [0, k); false ends the stream): marks, floods marking a run of
// nodes, and probes. Query ids are drawn out of order from a pool that
// drifts, so old queries come back while new ones start. It fails t at
// the first answer the two disagree on, then compares every mark.
func ledgerModelRun(t *testing.T, n int, next func(k int) (int, bool)) {
	l := NewQueryLedger(n)
	model := make([]map[uint64]struct{}, n)
	for i := range model {
		model[i] = make(map[uint64]struct{})
	}
	type query struct {
		origin int
		qid    uint32
	}
	keys := map[uint64]query{}
	mark := func(node int, q query) {
		k := marks.Pack(q.origin, q.qid)
		_, want := model[node][k]
		model[node][k] = struct{}{}
		keys[k] = q
		if got := l.mark(node, q.origin, q.qid); got != want {
			t.Fatalf("n=%d: node %d mark(%+v) = %v, model says %v", n, node, q, got, want)
		}
	}
	base := uint32(1)
	for {
		op, ok := next(16)
		if !ok {
			break
		}
		node, _ := next(n)
		origin, _ := next(n)
		id, _ := next(64)
		q := query{origin, base + uint32(id)}
		switch {
		case op < 10:
			mark(node, q)
		case op < 13:
			reach, _ := next(n)
			for i := 0; i <= reach; i++ {
				mark((node+i)%n, q)
			}
		case op < 15:
			if _, want := model[node][marks.Pack(q.origin, q.qid)]; l.has(node, q.origin, q.qid) != want {
				t.Fatalf("n=%d: node %d has(%+v) = %v, model says %v", n, node, q, !want, want)
			}
		default:
			base += 16
		}
	}
	if int(l.Made()) != len(keys) {
		t.Errorf("n=%d: %d records for %d distinct queries", n, l.Made(), len(keys))
	}
	for k, q := range keys {
		for node := range n {
			if _, want := model[node][k]; l.has(node, q.origin, q.qid) != want {
				t.Errorf("n=%d: after the run, node %d has(%+v) = %v, model says %v", n, node, q, !want, want)
			}
		}
	}
}

// The ledger answers as the per-servent sets it replaces did, at one
// bitset word (50 nodes) and several (130 and 500), over enough queries
// to fill chunks and double the table many times.
func TestQueryLedgerMatchesMapModel(t *testing.T) {
	for _, n := range []int{50, 130, 500} {
		rng := rand.New(rand.NewSource(int64(n)))
		ops := 0
		ledgerModelRun(t, n, func(k int) (int, bool) {
			ops++
			return rng.Intn(k), ops < 30000
		})
	}
}

func FuzzQueryLedger(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 40, 5, 6, 7, 8, 9, 50, 11, 60, 3, 4, 63, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{2, 42, 7, 3, 1, 33, 0, 2, 5, 36, 9, 9, 9}, 16))
	long := make([]byte, 4096)
	rand.New(rand.NewSource(47)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The first byte picks the network: one word, a word's edge, or
		// several words.
		sizes := []int{1, 50, 64, 65, 130, 500}
		n := sizes[int(data[0])%len(sizes)]
		data = data[1:]
		ledgerModelRun(t, n, func(k int) (int, bool) {
			if len(data) < 2 {
				return 0, false
			}
			v := int(data[0]) | int(data[1])<<8
			data = data[2:]
			return v % k, true
		})
	})
}

// quietestAllocs counts the heap allocations of op the way the
// repository's zero-alloc tests do: the fewest of five counts, each
// after a warm-up call. An allocation of op's shows in every count; one
// the Go runtime makes meanwhile (its background scavenger re-arming a
// timer) in one at most.
func quietestAllocs(op func()) int {
	fewest := math.MaxInt
	for range 5 {
		fewest = min(fewest, int(testing.AllocsPerRun(1, op)))
	}
	return fewest
}

// A query costs the ledger nothing of its own: N queries, each handled
// by ten servents, allocate the ledger, ⌈N/256⌉ chunks, the table and
// its doublings, and the chunk list's append growth, and nothing else.
func TestQueryLedgerAllocatesChunksNotQueries(t *testing.T) {
	const n, queries = 150, 3000
	var l *QueryLedger
	fill := func() {
		l = NewQueryLedger(n)
		for q := range queries {
			for i := range 10 {
				l.mark((q+i)%n, q%n, uint32(q/n+1))
			}
		}
	}
	allocs := quietestAllocs(fill)
	if int(l.Made()) != queries {
		t.Fatalf("%d queries made %d records", queries, l.Made())
	}
	// The index fills its 256-record chunks in record order, and doubles
	// its 16-slot table while it would be more than half full (both
	// pinned exactly by the marks package's own test).
	chunks := (queries + 255) / 256
	doublings := bits.Len(uint(2*queries-1)) - 4
	if want := 2 + chunks + doublings + bits.Len(uint(chunks)) + 1; allocs > want {
		t.Errorf("%d queries allocate %d objects, want at most %d: the ledger and its table, %d chunks, %d table doublings and the chunk list's growth",
			queries, allocs, want, chunks, doublings)
	}
}
