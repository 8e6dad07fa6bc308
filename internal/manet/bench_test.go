package manet

import (
	"testing"

	"manetp2p/internal/graphs"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
)

// benchSink keeps the compiler from eliding benchmarked metric math.
var benchSink float64

// snapshotBench is the tracked overlay-snapshot workload: one full
// overlay snapshot through the analytics engine — adjacency fill plus
// clustering, pathlength, components and edge count — exactly what the
// SnapshotEvery ticker and the health sampler run, on a 150-node Regular
// overlay run to steady state, the densest configuration the paper's
// snapshot ticker faces.
type snapshotBench struct {
	net *Network
	an  graphs.Analyzer
}

// newSnapshotBench returns the workload with the analyzer's scratch
// warm.
func newSnapshotBench(tb testing.TB) *snapshotBench {
	sc := DefaultScenario(150, p2p.Regular)
	sc.Seed = 42
	net, err := Build(sc, 0, Options{NoQueries: true})
	if err != nil {
		tb.Fatal(err)
	}
	net.Run(900 * sim.Second)
	w := &snapshotBench{net: net}
	w.snapshot()
	return w
}

func (w *snapshotBench) snapshot() graphs.Metrics {
	w.net.AppendOverlayAdjacency(&w.an.S)
	return w.an.Analyze(w.net.IsMember)
}

// BenchmarkOverlaySnapshot's contract is 0 allocs/op at steady state;
// TestOverlaySnapshotSteadyStateAllocs holds it there.
func BenchmarkOverlaySnapshot(b *testing.B) {
	w := newSnapshotBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		m := w.snapshot()
		sink += m.Clustering + m.PathLength + m.Largest + float64(m.Edges)
	}
	benchSink = sink
}

// The same contract in `go test`: once warm, a full fill+analyze
// snapshot of the live overlay allocates nothing.
func TestOverlaySnapshotSteadyStateAllocs(t *testing.T) {
	w := newSnapshotBench(t)
	if allocs := testing.AllocsPerRun(10, func() { w.snapshot() }); allocs != 0 {
		t.Errorf("steady-state snapshot allocates %v per run, want 0", allocs)
	}
}

// BenchmarkWaypointPos times one simulated second of a lone member:
// mostly its mobility model's position updates.
func BenchmarkWaypointPos(b *testing.B) {
	sc := DefaultScenario(1, p2p.Regular)
	sc.Seed = 3
	sc.MemberFraction = 1
	net, err := Build(sc, 0, Options{NoQueries: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Run(sim.Second)
	}
}
