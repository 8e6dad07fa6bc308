package graphs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// analyzeNaive computes the reference metrics for adj through the Graph
// implementation, shaped like Analyzer.Analyze's result.
func analyzeNaive(adj [][]int, member func(int) bool) (Metrics, []int) {
	g := New(adj)
	var m Metrics
	m.Clustering = g.ClusteringCoefficient()
	m.PathLength, m.Pairs = g.CharacteristicPathLength()
	sizes := g.Components(member)
	m.Components = len(sizes)
	m.Largest = g.LargestComponentFraction(member)
	m.Edges = g.NumEdges()
	return m, sizes
}

// requireEqual compares an Analyzer run against the naive path with
// exact equality — including the floating-point metrics, which the
// Analyzer must reproduce operation for operation (the golden fixtures
// pin them byte-for-byte).
func requireEqual(t *testing.T, a *Analyzer, adj [][]int, member func(int) bool) {
	t.Helper()
	want, wantSizes := analyzeNaive(adj, member)
	a.Load(adj)
	got := a.Analyze(member)
	if got != want {
		t.Fatalf("Analyzer = %+v, naive = %+v (adj %v)", got, want, adj)
	}
	gotSizes := a.ComponentSizes()
	if len(gotSizes) != len(wantSizes) {
		t.Fatalf("component sizes %v, naive %v (adj %v)", gotSizes, wantSizes, adj)
	}
	for i := range gotSizes {
		if gotSizes[i] != wantSizes[i] {
			t.Fatalf("component sizes %v, naive %v (adj %v)", gotSizes, wantSizes, adj)
		}
	}
}

func TestAnalyzerMatchesNaiveFixedCases(t *testing.T) {
	cases := [][][]int{
		nil,                                // empty graph
		{{}},                               // single isolated node
		{{1, 2}, {0, 2}, {0, 1}},           // triangle
		{{1}, {0, 2}, {1, 3}, {2}},         // chain
		{{1, 2, 3, 4}, {0}, {0}, {0}, {0}}, // star
		{{1}, {0}, {3}, {2}, {}},           // two pairs + isolated node
		{{1}, {}},                          // one-directional edge
		{{1, 2}, {2}, {}},                  // asymmetric triangle-ish
		{{0, 1, 1, 2, 99, -1}, {0}, {0}},   // self-loop, dupes, out-of-range
	}
	an := new(Analyzer) // shared across cases: scratch reuse must not leak
	for i, adj := range cases {
		requireEqual(t, an, adj, nil)
		if i%2 == 1 {
			requireEqual(t, an, adj, func(v int) bool { return v%2 == 0 })
		}
	}
}

func TestAnalyzerMatchesNaiveRingLattice(t *testing.T) {
	an := new(Analyzer)
	requireEqual(t, an, ring(30, 2), nil)
	requireEqual(t, an, ring(64, 3), nil) // node count on a word boundary
	requireEqual(t, an, ring(65, 1), nil)
}

// TestQuickAnalyzerEquivalence is the property test: on randomized
// graphs — disconnected, with self-loops, duplicates and asymmetric
// links — Analyzer results exactly match the naive implementations for
// clustering, pathlength, pairs count, edges and component sizes, with
// and without a member filter. One Analyzer is reused throughout, so
// stale scratch from a previous (differently-sized) graph is exercised
// too.
func TestQuickAnalyzerEquivalence(t *testing.T) {
	an := new(Analyzer)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) // includes n = 0
		adj := make([][]int, n)
		symmetric := rng.Intn(2) == 0
		p := 0.05 + 0.3*rng.Float64()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < p {
					adj[i] = append(adj[i], j) // j == i: self-loop kept on purpose
					if symmetric && j != i {
						adj[j] = append(adj[j], i)
					}
				}
			}
			if n > 0 && rng.Float64() < 0.2 {
				adj[i] = append(adj[i], rng.Intn(n)) // likely duplicate
			}
		}
		var member func(int) bool
		if rng.Intn(2) == 0 {
			keep := rng.Intn(3) + 1
			member = func(v int) bool { return v%3 < keep }
		}
		want, wantSizes := analyzeNaive(adj, member)
		an.Load(adj)
		got := an.Analyze(member)
		if got != want {
			t.Logf("seed %d: Analyzer %+v, naive %+v", seed, got, want)
			return false
		}
		gotSizes := an.ComponentSizes()
		if len(gotSizes) != len(wantSizes) {
			return false
		}
		for i := range gotSizes {
			if gotSizes[i] != wantSizes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAnalyzerSteadyStateAllocs pins the tentpole contract: once warm,
// a reload-and-analyze cycle performs zero allocations.
func TestAnalyzerSteadyStateAllocs(t *testing.T) {
	adj := ring(120, 3)
	an := new(Analyzer)
	an.Load(adj)
	an.Analyze(nil)
	member := func(v int) bool { return v%4 != 0 }
	if n := testing.AllocsPerRun(100, func() {
		an.Load(adj)
		an.Analyze(member)
	}); n > 0 {
		t.Fatalf("steady-state Load+Analyze allocates %.1f/op, want 0", n)
	}
}

// TestScratchManualFill exercises the external-filler contract
// (MarkLink pass, then rows with HasLink) the way
// Network.AppendOverlayAdjacency uses it.
func TestScratchManualFill(t *testing.T) {
	// Raw links: 0<->1 mutual, 1->2 one-sided, 2<->0 mutual.
	raw := [][]int{{1, 2}, {0, 2}, {0}}
	an := new(Analyzer)
	an.S.Reset(3)
	for i, row := range raw {
		for _, j := range row {
			an.S.MarkLink(i, j)
		}
	}
	for i, row := range raw {
		for _, j := range row {
			if an.S.HasLink(j, i) { // mutual only
				an.S.AppendNeighbor(j)
			}
		}
		an.S.EndRow()
	}
	got := an.Analyze(nil)
	want, _ := analyzeNaive([][]int{{1, 2}, {0}, {0}}, nil)
	if got != want {
		t.Fatalf("manual fill = %+v, want %+v", got, want)
	}
	if an.S.Degree(1) != 1 || len(an.S.nbrs) != 4 {
		t.Fatalf("degree(1) = %d, neighbors = %d; want 1, 4", an.S.Degree(1), len(an.S.nbrs))
	}
}
