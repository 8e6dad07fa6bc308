// Package mobility implements node movement models. The paper's scenarios
// use Random Waypoint ([Camp/Boleng/Davies 2002], cited as the "Random
// Way" model) with a maximum speed of 1.0 m/s and a maximum pause of
// 100 s over a 100 m × 100 m arena.
//
// Models are lazy functions of time: Pos(t) advances internal movement
// legs up to t and interpolates, so no events need to be scheduled. Time
// arguments must be nondecreasing across calls, which the single-threaded
// simulator guarantees.
//
// The constructors' argument checks are unreachable from input: each
// names what keeps it so in manet, the only caller, whose Scenario.Validate
// also refuses NaN and ±Inf in every float these arguments derive from.
package mobility

import (
	"math"
	"math/rand"

	"manetp2p/internal/geom"
	"manetp2p/internal/sim"
)

// Model yields a node's position over (nondecreasing) time.
type Model interface {
	Pos(t sim.Time) geom.Point
}

// Stationary is a Model that never moves; used for static-topology tests
// and as the degenerate end of mobility sweeps.
type Stationary struct {
	P geom.Point
}

// Pos returns the fixed position.
func (s Stationary) Pos(sim.Time) geom.Point { return s.P }

// Waypoint is the Random Waypoint model: travel in a straight line to a
// uniformly chosen destination at a uniformly chosen speed, pause for a
// uniform time, repeat.
type Waypoint struct {
	arena    geom.Rect
	minSpeed float64 // m/s; > 0 to avoid the classic RWP speed-decay trap
	maxSpeed float64 // m/s
	maxPause sim.Time
	rng      *rand.Rand

	from, to geom.Point
	legStart sim.Time
	legEnd   sim.Time
	moving   bool
}

// NewWaypoint creates a Random Waypoint walker starting (paused) at
// start. Speeds are drawn uniformly from [minSpeed, maxSpeed]; pauses
// uniformly from [0, maxPause]. minSpeed must be positive: allowing
// speeds arbitrarily close to zero makes expected leg durations diverge
// (the well-known RWP harmonic-mean pathology).
func NewWaypoint(arena geom.Rect, start geom.Point, minSpeed, maxSpeed float64, maxPause sim.Time, rng *rand.Rand) *Waypoint {
	switch { // unreachable from input: see the package comment
	case minSpeed <= 0: // Validate: AreaSide·√2 / minSpeed fits the clock
		panic("mobility: NewWaypoint requires minSpeed > 0")
	case maxSpeed < minSpeed: // the band's lower edge is at most MaxSpeed
		panic("mobility: NewWaypoint requires maxSpeed >= minSpeed")
	case maxPause < 0: // Validate: MaxPause not negative
		panic("mobility: NewWaypoint requires maxPause >= 0")
	case !arena.Contains(start): // Build draws start in the finite arena
		panic("mobility: NewWaypoint start outside arena")
	}
	w := &Waypoint{
		arena:    arena,
		minSpeed: minSpeed,
		maxSpeed: maxSpeed,
		maxPause: maxPause,
		rng:      rng,
		from:     start,
		to:       start,
		moving:   true, // so the first nextLeg starts with a pause
	}
	w.nextLeg()
	return w
}

// Pos returns the walker's position at time t >= the previous query time.
func (w *Waypoint) Pos(t sim.Time) geom.Point {
	for t >= w.legEnd {
		w.nextLeg()
	}
	if !w.moving || w.legEnd == w.legStart {
		return w.from
	}
	frac := float64(t-w.legStart) / float64(w.legEnd-w.legStart)
	return w.from.Lerp(w.to, frac)
}

// nextLeg rolls the next pause or travel leg starting where the previous
// one ended.
func (w *Waypoint) nextLeg() {
	w.legStart = w.legEnd
	if w.moving {
		// Just arrived: pause.
		w.from = w.to
		w.moving = false
		w.legEnd = w.legStart + sim.UniformDuration(w.rng, 0, w.maxPause)
		return
	}
	// Pause over: pick a destination and speed.
	w.moving = true
	w.to = w.arena.RandomPoint(w.rng)
	speed := w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
	dist := w.from.Dist(w.to)
	dur := sim.FromSeconds(dist / speed)
	if dur <= 0 {
		dur = sim.Microsecond // zero-length hop; keep time strictly advancing
	}
	w.legEnd = w.legStart + dur
}

// Walk is a random-walk (Brownian-like) model: pick a heading and speed,
// travel for a fixed epoch, reflect off arena walls, repeat. Included for
// the future-work mobility sweeps; not used by the paper's headline runs.
type Walk struct {
	arena    geom.Rect
	minSpeed float64
	maxSpeed float64
	epoch    sim.Time
	rng      *rand.Rand

	at       geom.Point
	vx, vy   float64 // m/s
	legStart sim.Time
	legEnd   sim.Time
}

// NewWalk creates a random walker starting at start that re-rolls heading
// and speed every epoch.
func NewWalk(arena geom.Rect, start geom.Point, minSpeed, maxSpeed float64, epoch sim.Time, rng *rand.Rand) *Walk {
	switch { // unreachable from input: see the package comment
	case minSpeed <= 0 || maxSpeed < minSpeed: // the validated speed band
		panic("mobility: NewWalk speed range invalid")
	case epoch <= 0: // a constant 20 s
		panic("mobility: NewWalk requires epoch > 0")
	case !arena.Contains(start): // Build draws start in the finite arena
		panic("mobility: NewWalk start outside arena")
	}
	w := &Walk{arena: arena, minSpeed: minSpeed, maxSpeed: maxSpeed, epoch: epoch, rng: rng, at: start}
	w.roll()
	return w
}

func (w *Walk) roll() {
	speed := w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
	theta := w.rng.Float64() * 2 * math.Pi
	w.vx, w.vy = speed*math.Cos(theta), speed*math.Sin(theta)
	w.legStart = w.legEnd
	w.legEnd = w.legStart + w.epoch
}

// Pos returns the walker's position at time t >= the previous query time.
func (w *Walk) Pos(t sim.Time) geom.Point {
	for t >= w.legEnd {
		w.at = w.reflect(w.at, float64(w.legEnd-w.legStart)/float64(sim.Second))
		w.roll()
	}
	return w.reflect(w.at, float64(t-w.legStart)/float64(sim.Second))
}

// reflect advances from p for dt seconds with the current velocity,
// bouncing off the arena walls.
func (w *Walk) reflect(p geom.Point, dt float64) geom.Point {
	x := p.X + w.vx*dt
	y := p.Y + w.vy*dt
	x, flipX := bounce(x, w.arena.W)
	y, flipY := bounce(y, w.arena.H)
	// Persist velocity flips only when committing a whole leg; for
	// mid-leg queries the flip is recomputed each time, which is
	// equivalent because reflection is deterministic in (p, v, dt).
	if dt == float64(w.legEnd-w.legStart)/float64(sim.Second) {
		if flipX {
			w.vx = -w.vx
		}
		if flipY {
			w.vy = -w.vy
		}
	}
	return geom.Point{X: x, Y: y}
}

// bounce folds coordinate v into [0, limit] by mirror reflection and
// reports whether an odd number of reflections occurred.
func bounce(v, limit float64) (float64, bool) {
	if limit <= 0 {
		return 0, false
	}
	period := 2 * limit
	v = math.Mod(v, period)
	if v < 0 {
		v += period
	}
	if v > limit {
		return period - v, true
	}
	return v, false
}
