// Package geom provides the 2-D geometry primitives and the uniform-grid
// spatial index used by the wireless medium for O(k) range queries.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position in metres on the simulation plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared distance between p and q; cheaper than Dist
// when only comparisons against a squared radius are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q; t outside
// [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String formats the point with centimetre precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f,%.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [0,W] × [0,H] anchored at the origin —
// the simulation arena. The paper uses 100 m × 100 m.
type Rect struct {
	W, H float64
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= 0 && p.X <= r.W && p.Y >= 0 && p.Y <= r.H
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{math.Min(math.Max(p.X, 0), r.W), math.Min(math.Max(p.Y, 0), r.H)}
}

// RandomPoint returns a point uniformly distributed over the rectangle.
func (r Rect) RandomPoint(rng *rand.Rand) Point {
	return Point{rng.Float64() * r.W, rng.Float64() * r.H}
}
