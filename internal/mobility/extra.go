package mobility

import (
	"math"
	"math/rand"

	"manetp2p/internal/geom"
	"manetp2p/internal/sim"
)

// This file adds the two further models from the mobility survey the
// paper cites (Camp/Boleng/Davies 2002): Random Direction and
// Gauss-Markov. They drive the mobility-model sensitivity sweeps; the
// paper's own scenarios use Random Waypoint.

// Direction is the Random Direction model: pick a heading, travel all
// the way to the arena boundary, pause, pick a new heading. Compared to
// Random Waypoint it avoids the density concentration in the arena
// center.
type Direction struct {
	arena    geom.Rect
	minSpeed float64
	maxSpeed float64
	maxPause sim.Time
	rng      *rand.Rand

	from, to geom.Point
	legStart sim.Time
	legEnd   sim.Time
	moving   bool
}

// NewDirection creates a Random Direction walker starting at start.
func NewDirection(arena geom.Rect, start geom.Point, minSpeed, maxSpeed float64, maxPause sim.Time, rng *rand.Rand) *Direction {
	switch { // unreachable from input: see the package comment
	case minSpeed <= 0 || maxSpeed < minSpeed: // the validated speed band
		panic("mobility: NewDirection speed range invalid")
	case maxPause < 0: // Validate: MaxPause not negative
		panic("mobility: NewDirection requires maxPause >= 0")
	case !arena.Contains(start): // Build draws start in the finite arena
		panic("mobility: NewDirection start outside arena")
	}
	d := &Direction{
		arena: arena, minSpeed: minSpeed, maxSpeed: maxSpeed,
		maxPause: maxPause, rng: rng, from: start, to: start, moving: true,
	}
	d.nextLeg()
	return d
}

// Pos returns the walker's position at a nondecreasing time t.
func (d *Direction) Pos(t sim.Time) geom.Point {
	for t >= d.legEnd {
		d.nextLeg()
	}
	if !d.moving || d.legEnd == d.legStart {
		return d.from
	}
	frac := float64(t-d.legStart) / float64(d.legEnd-d.legStart)
	return d.from.Lerp(d.to, frac)
}

func (d *Direction) nextLeg() {
	d.legStart = d.legEnd
	if d.moving {
		d.from = d.to
		d.moving = false
		d.legEnd = d.legStart + sim.UniformDuration(d.rng, 0, d.maxPause)
		return
	}
	d.moving = true
	d.to = d.boundaryTarget()
	speed := d.minSpeed + d.rng.Float64()*(d.maxSpeed-d.minSpeed)
	dur := sim.FromSeconds(d.from.Dist(d.to) / speed)
	if dur <= 0 {
		dur = sim.Microsecond
	}
	d.legEnd = d.legStart + dur
}

// boundaryTarget returns where a ray from the current position with a
// uniform random heading exits the arena.
func (d *Direction) boundaryTarget() geom.Point {
	theta := d.rng.Float64() * 2 * math.Pi
	dx, dy := math.Cos(theta), math.Sin(theta)
	// Distance to each wall along the ray; take the nearest positive.
	best := math.Inf(1)
	if dx > 0 {
		best = math.Min(best, (d.arena.W-d.from.X)/dx)
	} else if dx < 0 {
		best = math.Min(best, -d.from.X/dx)
	}
	if dy > 0 {
		best = math.Min(best, (d.arena.H-d.from.Y)/dy)
	} else if dy < 0 {
		best = math.Min(best, -d.from.Y/dy)
	}
	if math.IsInf(best, 1) || best < 0 {
		return d.from // degenerate heading; stand still this leg
	}
	return d.arena.Clamp(geom.Point{X: d.from.X + dx*best, Y: d.from.Y + dy*best})
}

// GaussMarkov is the Gauss-Markov model: speed and heading evolve as
// first-order autoregressive processes, giving temporally correlated,
// smoothly turning trajectories. Alpha in [0,1] tunes memory: 0 is a
// memoryless random walk, 1 is constant-velocity motion.
type GaussMarkov struct {
	arena     geom.Rect
	meanSpeed float64
	alpha     float64
	sigma     float64 // randomness amplitude
	step      sim.Time
	rng       *rand.Rand

	at       geom.Point
	speed    float64
	heading  float64
	legStart sim.Time
	next     geom.Point
}

// NewGaussMarkov creates a Gauss-Markov walker starting at start with
// the given mean speed and memory parameter alpha, updated every step.
func NewGaussMarkov(arena geom.Rect, start geom.Point, meanSpeed, alpha float64, step sim.Time, rng *rand.Rand) *GaussMarkov {
	switch { // unreachable from input: see the package comment
	case meanSpeed <= 0: // the middle of the validated speed band
		panic("mobility: NewGaussMarkov requires meanSpeed > 0")
	case alpha < 0 || alpha > 1: // a constant 0.75
		panic("mobility: NewGaussMarkov alpha outside [0,1]")
	case step <= 0: // a constant 1 s
		panic("mobility: NewGaussMarkov requires step > 0")
	case !arena.Contains(start): // Build draws start in the finite arena
		panic("mobility: NewGaussMarkov start outside arena")
	}
	g := &GaussMarkov{
		arena: arena, meanSpeed: meanSpeed, alpha: alpha,
		sigma: meanSpeed / 2, step: step, rng: rng,
		at: start, speed: meanSpeed, heading: rng.Float64() * 2 * math.Pi,
	}
	g.next = g.advance()
	return g
}

// Pos returns the walker's position at a nondecreasing time t.
func (g *GaussMarkov) Pos(t sim.Time) geom.Point {
	for t >= g.legStart+g.step {
		g.at = g.next
		g.legStart += g.step
		g.next = g.advance()
	}
	frac := float64(t-g.legStart) / float64(g.step)
	return g.at.Lerp(g.next, frac)
}

// advance rolls the AR(1) speed/heading update and returns the position
// one step ahead, reflecting at walls.
func (g *GaussMarkov) advance() geom.Point {
	a := g.alpha
	g.speed = a*g.speed + (1-a)*g.meanSpeed + math.Sqrt(1-a*a)*g.sigma*g.rng.NormFloat64()
	if g.speed < 0 {
		g.speed = 0
	}
	meanHeading := g.heading
	// Steer away from walls so trajectories do not pile up at edges
	// (the standard Gauss-Markov boundary treatment).
	const margin = 5.0
	switch {
	case g.at.X < margin:
		meanHeading = 0
	case g.at.X > g.arena.W-margin:
		meanHeading = math.Pi
	case g.at.Y < margin:
		meanHeading = math.Pi / 2
	case g.at.Y > g.arena.H-margin:
		meanHeading = 3 * math.Pi / 2
	}
	g.heading = a*g.heading + (1-a)*meanHeading + math.Sqrt(1-a*a)*0.5*g.rng.NormFloat64()
	dt := g.step.Seconds()
	p := geom.Point{
		X: g.at.X + g.speed*math.Cos(g.heading)*dt,
		Y: g.at.Y + g.speed*math.Sin(g.heading)*dt,
	}
	return g.arena.Clamp(p)
}
