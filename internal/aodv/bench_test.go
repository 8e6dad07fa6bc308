package aodv

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// BenchmarkAODVDiscovery measures one cold route discovery over a 10-hop
// chain.
func BenchmarkAODVDiscovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := sim.New(int64(i))
		med, err := radio.NewMedium(s, radio.Config{
			Arena: geom.Rect{W: 200, H: 50}, Range: 10, NumNodes: 11,
			Latency: 2 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		routers := make([]*Router, 11)
		pl := route.NewPlane(s, med)
		delivered := false
		for n := 0; n < 11; n++ {
			routers[n] = NewRouter(n, pl, DefaultConfig())
			med.Join(n, geom.Point{X: 5 + 8*float64(n), Y: 25}, routers[n].HandleFrame)
		}
		routers[10].OnUnicast(func(Delivery) { delivered = true })
		b.StartTimer()
		routers[0].Send(10, 64, netif.TestMsg(1))
		s.Run(30 * sim.Second)
		if !delivered {
			b.Fatal("discovery failed")
		}
	}
}

// floodBench is the tracked absorbed-flood workload: one controlled
// broadcast from a rotating origin over a dense static 5×5 grid (4 m
// spacing, 10 m range: up to 20 neighbours), the absorber installed by
// the routers' constructors as in manet.Build. Most receptions
// are duplicates the medium holds off the wheel and settles; the
// origin's Stats read settles the rest.
type floodBench struct {
	s         *sim.Sim
	routers   []*Router
	next      int
	delivered int
	dupHits   uint64 // the last origin's, read to settle the medium
}

const floodSide = 5

func newFloodBench(tb testing.TB) *floodBench {
	const nodes = floodSide * floodSide
	w := &floodBench{s: sim.New(9), routers: make([]*Router, nodes)}
	med, err := radio.NewMedium(w.s, radio.Config{
		Arena: geom.Rect{W: 50, H: 50}, Range: 10, NumNodes: nodes,
		Latency: 2 * sim.Millisecond, Jitter: sim.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pl := route.NewPlane(w.s, med)
	cfg := DefaultConfig()
	cfg.Seen.Timeout = sim.Second
	for n := range w.routers {
		w.routers[n] = NewRouter(n, pl, cfg)
		w.routers[n].OnBroadcast(func(Delivery) { w.delivered++ })
		med.Join(n, geom.Point{X: 5 + 4*float64(n%floodSide), Y: 5 + 4*float64(n/floodSide)}, w.routers[n].HandleFrame)
	}
	for w.s.Now() < 2*sim.Second { // past the cache timeout: the index is at its steady size
		w.flood()
	}
	w.delivered = 0
	return w
}

// flood is one broadcast, drained, and its origin's counters read.
func (w *floodBench) flood() {
	r := w.routers[w.next%len(w.routers)]
	w.next++
	r.Broadcast(4, 32, netif.TestMsg(uint32(w.next)))
	w.s.Run(w.s.Now() + 50*sim.Millisecond)
	w.dupHits = r.Stats().DupHits
}

// check fails tb unless each of n floods reached every other node once
// and the medium held some of its duplicates.
func (w *floodBench) check(tb testing.TB, n int) {
	if want := n * (len(w.routers) - 1); w.delivered != want {
		tb.Fatalf("%d floods delivered %d times, want %d", n, w.delivered, want)
	}
	if w.routers[0].Medium.Stats(0).Absorbed == 0 || w.dupHits == 0 {
		tb.Fatal("no duplicate was held off the wheel")
	}
}

// BenchmarkAODVFlood's contract is 0 allocs/op once warm:
// TestAODVFloodZeroAllocs holds it at zero.
func BenchmarkAODVFlood(b *testing.B) {
	w := newFloodBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.flood()
	}
	w.check(b, b.N)
}

// The same contract in `go test`: Send, the held list and its settling
// allocate nothing.
func TestAODVFloodZeroAllocs(t *testing.T) {
	w := newFloodBench(t)
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, w.flood); allocs != 0 {
		t.Errorf("one absorbed flood allocates %.1f allocs/op, want 0", allocs)
	}
	w.check(t, runs+1) // AllocsPerRun makes one warm-up call
}
