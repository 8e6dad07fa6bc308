package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := a.Dist2(b); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := a.Dist(a); got != 0 {
		t.Errorf("Dist(self) = %v, want 0", got)
	}
}

func TestPointLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v, want (5,10)", got)
	}
}

func TestRectContainsClamp(t *testing.T) {
	r := Rect{100, 50}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{100, 50}) {
		t.Error("corners must be contained")
	}
	if r.Contains(Point{-0.01, 0}) || r.Contains(Point{0, 50.01}) {
		t.Error("outside points reported contained")
	}
	if got := r.Clamp(Point{-5, 60}); got != (Point{0, 50}) {
		t.Errorf("Clamp = %v, want (0,50)", got)
	}
	if got := r.Clamp(Point{42, 7}); got != (Point{42, 7}) {
		t.Errorf("Clamp of inside point = %v, want unchanged", got)
	}
}

func TestRectRandomPointUniform(t *testing.T) {
	r := Rect{100, 100}
	rng := rand.New(rand.NewSource(1))
	// Chi-square-ish check: count points per quadrant.
	var quad [4]int
	const n = 40000
	for i := 0; i < n; i++ {
		p := r.RandomPoint(rng)
		if !r.Contains(p) {
			t.Fatalf("RandomPoint outside arena: %v", p)
		}
		q := 0
		if p.X > 50 {
			q |= 1
		}
		if p.Y > 50 {
			q |= 2
		}
		quad[q]++
	}
	for q, c := range quad {
		if c < n/4-n/20 || c > n/4+n/20 {
			t.Errorf("quadrant %d count %d far from uniform %d", q, c, n/4)
		}
	}
}

func TestGridInsertMoveRemove(t *testing.T) {
	g := NewGrid(Rect{100, 100}, 10, 4)
	g.Insert(0, Point{5, 5})
	g.Insert(1, Point{6, 5})
	g.Insert(2, Point{95, 95})
	if !g.present[0] || !g.present[1] || !g.present[2] || g.present[3] {
		t.Fatalf("present = %v, want ids 0-2", g.present)
	}
	got := g.Near(nil, Point{5, 5}, 3, -1)
	if len(got) != 2 {
		t.Fatalf("Near = %v, want ids 0 and 1", got)
	}
	// Move 1 far away.
	g.Move(1, Point{50, 50})
	got = g.Near(nil, Point{5, 5}, 3, -1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Near after Move = %v, want [0]", got)
	}
	got = g.Near(nil, Point{50, 50}, 1, -1)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Near at new position = %v, want [1]", got)
	}
	g.Remove(1)
	if g.present[1] {
		t.Error("id 1 still present after Remove")
	}
	if got = g.Near(nil, Point{50, 50}, 1, -1); len(got) != 0 {
		t.Fatalf("Near after Remove = %v, want empty", got)
	}
}

func TestGridExclude(t *testing.T) {
	g := NewGrid(Rect{100, 100}, 10, 2)
	g.Insert(0, Point{5, 5})
	g.Insert(1, Point{5, 6})
	got := g.Near(nil, Point{5, 5}, 5, 0)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Near excluding 0 = %v, want [1]", got)
	}
}

func TestGridBoundaryPositions(t *testing.T) {
	g := NewGrid(Rect{100, 100}, 10, 3)
	// Exactly on the far edges and corners must not panic or be lost.
	g.Insert(0, Point{100, 100})
	g.Insert(1, Point{0, 100})
	g.Insert(2, Point{100, 0})
	got := g.Near(nil, Point{100, 100}, 0.5, -1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Near corner = %v, want [0]", got)
	}
}

func TestGridRadiusInclusive(t *testing.T) {
	g := NewGrid(Rect{100, 100}, 10, 2)
	g.Insert(0, Point{10, 10})
	g.Insert(1, Point{20, 10})
	// Distance exactly equal to the radius counts as in range.
	got := g.Near(nil, Point{10, 10}, 10, 0)
	if len(got) != 1 {
		t.Fatalf("item at exactly radius distance excluded: %v", got)
	}
}

func TestGridDuplicateInsertPanics(t *testing.T) {
	g := NewGrid(Rect{10, 10}, 1, 1)
	g.Insert(0, Point{1, 1})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Insert did not panic")
		}
	}()
	g.Insert(0, Point{2, 2})
}

func TestGridRemoveAbsentPanics(t *testing.T) {
	g := NewGrid(Rect{10, 10}, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("Remove of absent id did not panic")
		}
	}()
	g.Remove(0)
}

// bruteNear is the reference implementation for the property test.
func bruteNear(pos []Point, alive []bool, p Point, radius float64, exclude int) map[int]bool {
	out := map[int]bool{}
	for id := range pos {
		if !alive[id] || id == exclude {
			continue
		}
		if pos[id].Dist2(p) <= radius*radius {
			out[id] = true
		}
	}
	return out
}

// Property: Grid.Near agrees with the brute-force scan under random
// insert/move/remove workloads and random queries.
func TestQuickGridMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arena := Rect{100, 100}
		const n = 60
		g := NewGrid(arena, 10, n)
		pos := make([]Point, n)
		alive := make([]bool, n)
		for step := 0; step < 300; step++ {
			id := rng.Intn(n)
			switch {
			case !alive[id]:
				pos[id] = arena.RandomPoint(rng)
				alive[id] = true
				g.Insert(id, pos[id])
			case rng.Intn(4) == 0:
				alive[id] = false
				g.Remove(id)
			default:
				pos[id] = arena.RandomPoint(rng)
				g.Move(id, pos[id])
			}
			if step%10 == 0 {
				q := arena.RandomPoint(rng)
				radius := rng.Float64() * 30
				exclude := rng.Intn(n+1) - 1
				got := g.Near(nil, q, radius, exclude)
				want := bruteNear(pos, alive, q, radius, exclude)
				if len(got) != len(want) {
					return false
				}
				for _, id := range got {
					if !want[id] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Lerp never leaves the segment's bounding box for t in [0,1].
func TestQuickLerpWithinBox(t *testing.T) {
	f := func(ax, ay, bx, by, tt float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) || math.IsNaN(tt) {
			return true
		}
		// Constrain coordinates to arena-like magnitudes; astronomic values
		// only probe float overflow, not the interpolation logic.
		clamp := func(v float64) float64 { return math.Mod(v, 1e4) }
		ax, ay, bx, by = clamp(ax), clamp(ay), clamp(bx), clamp(by)
		frac := math.Abs(tt) - math.Floor(math.Abs(tt)) // into [0,1)
		a, b := Point{ax, ay}, Point{bx, by}
		p := a.Lerp(b, frac)
		lox, hix := math.Min(ax, bx), math.Max(ax, bx)
		loy, hiy := math.Min(ay, by), math.Max(ay, by)
		const eps = 1e-9
		return p.X >= lox-eps && p.X <= hix+eps && p.Y >= loy-eps && p.Y <= hiy+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewGridValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewGrid(Rect{100, 100}, 0, 1) },
		func() { NewGrid(Rect{0, 100}, 10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewGrid did not panic")
				}
			}()
			bad()
		}()
	}
}
