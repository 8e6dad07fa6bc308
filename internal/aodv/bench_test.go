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
	if allocs := batchAllocs(runs, w.flood); allocs != 0 {
		t.Errorf("%d absorbed floods allocate %d objects, want 0", runs, allocs)
	}
	w.check(t, 2*runs) // a warm-up batch, then the counted one
}

// batchAllocs counts the heap allocations of runs calls of op, after a
// warm-up batch of as many. testing.AllocsPerRun divides its count by
// the calls in integers; counted whole, an allocation made less than
// once per call (a chunk every so many ops) cannot round away.
func batchAllocs(runs int, op func()) int {
	return int(testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			op()
		}
	}))
}

// rerrBench is the tracked route-error workload: node 1 routes to
// rerrDsts destinations through node 2, node 0 routes to the same ones
// through node 1, and node 2 is out of range. Each op reinstalls both
// tables' routes, node 1 finds the link to 2 broken (linkBreak) and
// broadcasts an RERR naming every destination, and node 0, whose routes
// all used node 1, propagates it; node 1 hears the relay and has nothing
// left to tear down.
type rerrBench struct {
	s      *sim.Sim
	up     *Router // node 0, which propagates
	broken *Router // node 1, whose link breaks
}

const rerrDsts = 20

func newRERRBench(tb testing.TB) *rerrBench {
	const nodes = rerrDsts + 3 // 0, 1, the lost hop 2, and the destinations
	w := &rerrBench{s: sim.New(5)}
	med, err := radio.NewMedium(w.s, radio.Config{
		Arena: geom.Rect{W: 100, H: 100}, Range: 10, NumNodes: nodes,
		Latency: 2 * sim.Millisecond, Jitter: sim.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pl := route.NewPlane(w.s, med)
	w.up = NewRouter(0, pl, DefaultConfig())
	w.broken = NewRouter(1, pl, DefaultConfig())
	med.Join(0, geom.Point{X: 5, Y: 5}, w.up.HandleFrame)
	med.Join(1, geom.Point{X: 13, Y: 5}, w.broken.HandleFrame)
	w.rerr()
	w.check(tb, 1)
	return w
}

// rerr is one link break and its propagation, drained.
func (w *rerrBench) rerr() {
	now, life := w.s.Now(), w.up.cfg.ActiveRouteTimeout
	for dst := 2; dst < rerrDsts+3; dst++ {
		w.broken.table.update(dst, 2, dst-1, 0, false, now, life)
		w.up.table.update(dst, 1, dst, 0, false, now, life)
	}
	w.broken.linkBreak(2, now)
	w.s.Run(now + 10*sim.Millisecond)
}

// check fails tb unless node 1 originated and node 0 relayed n RERRs
// and no route to a destination survived at either.
func (w *rerrBench) check(tb testing.TB, n int) {
	if got := w.broken.Stats().CtrlOrig; got != uint64(n) {
		tb.Fatalf("node 1 originated %d RERRs, want %d", got, n)
	}
	if got := w.up.Stats().CtrlRelayed; got != uint64(n) {
		tb.Fatalf("node 0 propagated %d RERRs, want %d", got, n)
	}
	for dst := 2; dst < rerrDsts+3; dst++ {
		if _, ok := w.up.HopsTo(dst); ok {
			tb.Fatalf("node 0 kept its route to %d", dst)
		}
	}
}

// BenchmarkAODVRERR's contract is 0 allocs/op: TestAODVRERRZeroAllocs
// holds it at zero.
func BenchmarkAODVRERR(b *testing.B) {
	w := newRERRBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.rerr()
	}
	w.check(b, b.N+1)
}

// The same contract in `go test`: building, sending, receiving and
// propagating an RERR allocates nothing.
func TestAODVRERRZeroAllocs(t *testing.T) {
	w := newRERRBench(t)
	const runs = 200
	if allocs := batchAllocs(runs, w.rerr); allocs != 0 {
		t.Errorf("%d propagated RERRs allocate %d objects, want 0", runs, allocs)
	}
	w.check(t, 2*runs+1) // the set-up's op, a warm-up batch and the counted one
}

// A router's construction allocates its state and binds no scheduling
// callback: its discovery timer and its core's self-delivery are
// package-level functions that reach their owner through sim.Arg.X.
func TestNewRouterAllocs(t *testing.T) {
	s := sim.New(1)
	med, err := radio.NewMedium(s, radio.Config{Arena: geom.Rect{W: 50, H: 50}, Range: 10, NumNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	pl := route.NewPlane(s, med)
	cfg := DefaultConfig()
	if allocs := testing.AllocsPerRun(100, func() { NewRouter(3, pl, cfg) }); allocs != 14 {
		t.Errorf("NewRouter allocates %.1f objects, want 14", allocs)
	}
}
