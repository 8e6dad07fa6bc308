package manet

import (
	"testing"

	"manetp2p/internal/graphs"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
)

// benchSink keeps the compiler from eliding benchmarked metric math.
var benchSink float64

// BenchmarkOverlaySnapshot measures one full overlay snapshot through the
// analytics engine — adjacency fill plus clustering, pathlength,
// components and edge count — exactly what the SnapshotEvery ticker and
// the health sampler run, on a 150-node Regular overlay run to steady
// state, the densest configuration the paper's snapshot ticker faces.
// Must report 0 allocs/op at steady state.
func BenchmarkOverlaySnapshot(b *testing.B) {
	sc := DefaultScenario(150, p2p.Regular)
	sc.Seed = 42
	net, err := Build(sc, 0, Options{NoQueries: true})
	if err != nil {
		b.Fatal(err)
	}
	net.Run(900 * sim.Second)
	an := new(graphs.Analyzer)
	isMember := net.IsMember
	net.AppendOverlayAdjacency(&an.S)
	an.Analyze(isMember) // warm the scratch before timing
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		net.AppendOverlayAdjacency(&an.S)
		m := an.Analyze(isMember)
		sink += m.Clustering + m.PathLength + m.Largest + float64(m.Edges)
	}
	benchSink = sink
}
