package geom

import (
	"math/rand"
	"testing"

	"manetp2p/internal/sim"
)

// nearWorkload builds the tracked range-query workload: 150 items placed
// uniformly on the paper's arena in a range-sized grid, the stream the
// query points are drawn from, and a result buffer no query outgrows.
func nearWorkload() (arena Rect, g *Grid, rng *rand.Rand, buf []int) {
	arena = Rect{W: 100, H: 100}
	g = NewGrid(arena, 10, 150)
	rng = sim.New(2).NewRand()
	for i := 0; i < 150; i++ {
		g.Insert(i, arena.RandomPoint(rng))
	}
	return arena, g, rng, make([]int, 0, 32)
}

// BenchmarkGridNear measures one range query on the spatial index.
func BenchmarkGridNear(b *testing.B) {
	arena, g, rng, buf := nearWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Near(buf[:0], arena.RandomPoint(rng), 10, -1)
	}
}

// BenchmarkGridNearBruteForce is the comparison baseline for
// BenchmarkGridNear: the O(n) scan over the same population.
func BenchmarkGridNearBruteForce(b *testing.B) {
	arena, g, rng, buf := nearWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := arena.RandomPoint(rng)
		buf = buf[:0]
		for id := 0; id < 150; id++ {
			if g.Pos(id).Dist2(q) <= 100 {
				buf = append(buf, id)
			}
		}
	}
}

// A range query into a caller-owned buffer allocates nothing: the radio
// refills every neighbour list through it.
func TestGridNearZeroAllocs(t *testing.T) {
	arena, g, rng, buf := nearWorkload()
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = g.Near(buf[:0], arena.RandomPoint(rng), 10, -1)
	}); allocs != 0 {
		t.Errorf("Near allocates %.1f allocs/op, want 0", allocs)
	}
}
