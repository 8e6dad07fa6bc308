package route

import (
	"testing"

	"manetp2p/internal/sim"
)

// dupCheckBench is the tracked duplicate-test workload: the test every
// radio reception makes, in the order a simulation makes them. One
// flood's key is tested at each of 150 nodes — a first arrival and three
// duplicates — then the next flood's, 10 ms later, so 3000 floods are
// live at any moment and every mark made expires inside the timed region.
type dupCheckBench struct {
	s             *sim.Sim
	caches        []*DupCache
	next          int // floods made so far
	firsts, dupes int
}

const (
	dupCheckNodes   = 150
	dupCheckDups    = 3
	dupCheckTimeout = 30 * sim.Second
	dupCheckGap     = 10 * sim.Millisecond
)

// newDupCheckBench returns the workload with the index at its
// steady-state size.
func newDupCheckBench() *dupCheckBench {
	w := &dupCheckBench{s: sim.New(5), caches: make([]*DupCache, dupCheckNodes)}
	pl := NewPlane(w.s, dupCheckNodes)
	for n := range w.caches {
		w.caches[n] = NewDupCache(NewCore(n, pl), CacheConfig{Timeout: dupCheckTimeout})
	}
	for warm := 2 * int(dupCheckTimeout/dupCheckGap); w.next < warm; {
		w.flood()
	}
	w.firsts, w.dupes = 0, 0
	return w
}

func (w *dupCheckBench) flood() {
	k := Key{Origin: w.next % dupCheckNodes, ID: uint32(w.next)}
	w.next++
	for _, dc := range w.caches {
		for d := 0; d <= dupCheckDups; d++ {
			if dc.Mark(k) {
				w.dupes++
			} else {
				w.firsts++
			}
		}
	}
	w.s.Run(w.s.Now() + dupCheckGap)
}

// check fails tb unless n floods since the warm-up produced one first
// arrival and three duplicates at every node.
func (w *dupCheckBench) check(tb testing.TB, n int) {
	if w.firsts != dupCheckNodes*n || w.dupes != dupCheckDups*dupCheckNodes*n {
		tb.Fatalf("%d floods: %d first arrivals and %d duplicates, want %d and %d",
			n, w.firsts, w.dupes, dupCheckNodes*n, dupCheckDups*dupCheckNodes*n)
	}
}

// BenchmarkDupCheck's contract from the steady state on is 0 allocs/op,
// and TestDupCheckZeroAllocs holds it at zero.
func BenchmarkDupCheck(b *testing.B) {
	w := newDupCheckBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.flood()
	}
	w.check(b, b.N)
}

// The same contract in `go test`: marks made, found again and expired
// without one heap allocation.
func TestDupCheckZeroAllocs(t *testing.T) {
	w := newDupCheckBench()
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, w.flood); allocs != 0 {
		t.Errorf("one flood's duplicate tests allocate %.1f allocs/op, want 0", allocs)
	}
	w.check(t, runs+1) // AllocsPerRun makes one warm-up call
}
