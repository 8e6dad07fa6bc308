package flood

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// relayBench is the tracked controlled-broadcast workload: the shared
// relay path (route.Bcaster, used by all four routing substrates), one
// TTL-bounded broadcast flooded down a 16-node line, including every
// relay re-transmission and duplicate-cache suppression along the way.
// The network persists across broadcasts, so the duplicate caches work
// at steady state and their pruning cost is included.
type relayBench struct {
	s         *sim.Sim
	src       *Router
	sent      uint32
	delivered int // at the far end
}

const relayNodes = 16

func newRelayBench(tb testing.TB) *relayBench {
	w := &relayBench{s: sim.New(7)}
	med, err := radio.NewMedium(w.s, radio.Config{
		Arena: geom.Rect{W: 200, H: 50}, Range: 10, NumNodes: relayNodes,
		Latency: 2 * sim.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	routers := make([]*Router, relayNodes)
	pl := route.NewPlane(w.s, relayNodes)
	for n := 0; n < relayNodes; n++ {
		routers[n] = NewRouter(n, pl, med, Config{})
		med.Join(n, geom.Point{X: 5 + 8*float64(n), Y: 25}, routers[n].HandleFrame)
	}
	routers[relayNodes-1].OnBroadcast(func(netif.Delivery) { w.delivered++ })
	w.src = routers[0]
	return w
}

func (w *relayBench) broadcast() {
	w.src.Broadcast(relayNodes-1, 64, netif.TestMsg(w.sent))
	w.sent++
	w.s.Run(sim.MaxTime)
}

func (w *relayBench) check(tb testing.TB) {
	if w.delivered != int(w.sent) {
		tb.Fatalf("far end delivered %d of %d broadcasts", w.delivered, w.sent)
	}
}

func BenchmarkBcastRelay(b *testing.B) {
	w := newRelayBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.broadcast()
	}
	w.check(b)
}

// The relay path allocates nothing at steady state: BenchmarkBcastRelay's
// contract is 0 allocs/op, and this holds it in `go test`. The warm-up runs
// past the duplicate caches' timeout, so the shared index has reached the
// size it keeps.
func TestBcastRelayZeroAllocs(t *testing.T) {
	w := newRelayBench(t)
	for w.s.Now() < sim.Minute {
		w.broadcast()
	}
	if allocs := testing.AllocsPerRun(1000, w.broadcast); allocs != 0 {
		t.Errorf("one relayed broadcast allocates %.1f allocs/op, want 0", allocs)
	}
	w.check(t)
}
