package graphs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ring builds a ring lattice: n nodes, each connected to k nearest
// neighbors on each side.
func ring(n, k int) [][]int {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			adj[i] = append(adj[i], (i+d)%n, (i-d+n)%n)
		}
	}
	return adj
}

func TestNewDedupsAndDropsSelfLoops(t *testing.T) {
	g := New([][]int{{0, 1, 1, 2}, {0}, {0}})
	if len(g.Adj[0]) != 2 {
		t.Errorf("Adj[0] = %v, want deduped [1 2]", g.Adj[0])
	}
}

func TestTriangleClustering(t *testing.T) {
	g := New([][]int{{1, 2}, {0, 2}, {0, 1}})
	if c := g.ClusteringCoefficient(); c != 1.0 {
		t.Errorf("triangle clustering = %v, want 1", c)
	}
	l, pairs := g.CharacteristicPathLength()
	if l != 1.0 || pairs != 6 {
		t.Errorf("triangle pathlength = %v over %d pairs, want 1 over 6", l, pairs)
	}
}

func TestStarClustering(t *testing.T) {
	// Star: center 0, leaves 1..4 — no neighbor of the center is
	// connected to another, so clustering 0.
	adj := [][]int{{1, 2, 3, 4}, {0}, {0}, {0}, {0}}
	g := New(adj)
	if c := g.ClusteringCoefficient(); c != 0 {
		t.Errorf("star clustering = %v, want 0", c)
	}
	l, _ := g.CharacteristicPathLength()
	// Leaves are 2 apart, center 1 from each: (2*4*1 + 4*3*2)/(20) = 1.6.
	if math.Abs(l-1.6) > 1e-9 {
		t.Errorf("star pathlength = %v, want 1.6", l)
	}
}

func TestRingLatticeClustering(t *testing.T) {
	// Known result: ring lattice with k neighbors per side has
	// C = 3(k-1) / (2(2k-1)). For k=2: 3/6... C = 3*1/(2*3) = 0.5.
	g := New(ring(30, 2))
	if c := g.ClusteringCoefficient(); math.Abs(c-0.5) > 1e-9 {
		t.Errorf("ring lattice clustering = %v, want 0.5", c)
	}
}

func TestPathLengthChain(t *testing.T) {
	g := New([][]int{{1}, {0, 2}, {1, 3}, {2}})
	l, pairs := g.CharacteristicPathLength()
	// Chain of 4: ordered pairs distances sum = 2*(1+2+3 + 1+2 + 1) = 20
	// over 12 pairs.
	if pairs != 12 || math.Abs(l-20.0/12) > 1e-9 {
		t.Errorf("chain pathlength = %v over %d pairs", l, pairs)
	}
}

func TestComponents(t *testing.T) {
	g := New([][]int{{1}, {0}, {3}, {2}, {}})
	sizes := g.Components(nil)
	if len(sizes) != 3 {
		t.Fatalf("components = %v, want 3 components", sizes)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 5 {
		t.Errorf("component sizes sum to %d, want 5", total)
	}
	if f := g.LargestComponentFraction(nil); math.Abs(f-0.4) > 1e-9 {
		t.Errorf("largest component fraction = %v, want 0.4", f)
	}
}

func TestComponentsWithMemberFilter(t *testing.T) {
	g := New([][]int{{1}, {0}, {}, {}})
	member := func(i int) bool { return i < 2 }
	sizes := g.Components(member)
	if len(sizes) != 1 || sizes[0] != 2 {
		t.Errorf("filtered components = %v, want [2]", sizes)
	}
}

func TestReferencePathLengths(t *testing.T) {
	if got := RegularPathLength(100, 4); got != 12.5 {
		t.Errorf("RegularPathLength = %v, want 12.5", got)
	}
	want := math.Log(100) / math.Log(4)
	if got := RandomPathLength(100, 4); math.Abs(got-want) > 1e-12 {
		t.Errorf("RandomPathLength = %v, want %v", got, want)
	}
	if !math.IsInf(RegularPathLength(10, 0), 1) || !math.IsInf(RandomPathLength(10, 1), 1) {
		t.Error("degenerate reference pathlengths must be +Inf")
	}
}

// Property: clustering coefficient is always in [0,1] and pathlength is
// >= 1 when pairs exist, on random graphs.
func TestQuickGraphMetricBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		adj := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		g := New(adj)
		c := g.ClusteringCoefficient()
		if c < 0 || c > 1 {
			return false
		}
		l, pairs := g.CharacteristicPathLength()
		if pairs > 0 && l < 1 {
			return false
		}
		// Components partition the node set.
		total := 0
		for _, s := range g.Components(nil) {
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDegreesAndEdges(t *testing.T) {
	g := New([][]int{{1, 2}, {0}, {0}})
	if len(g.Adj[0]) != 2 || len(g.Adj[1]) != 1 || len(g.Adj[2]) != 1 {
		t.Errorf("adjacency = %v", g.Adj)
	}
	if e := g.NumEdges(); e != 2 {
		t.Errorf("edges = %d, want 2", e)
	}
	// One-directional edge still counts once.
	g = New([][]int{{1}, {}})
	if e := g.NumEdges(); e != 1 {
		t.Errorf("one-directional edges = %d, want 1", e)
	}
}
