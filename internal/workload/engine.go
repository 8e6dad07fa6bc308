package workload

import (
	"math"
	"math/rand"

	"manetp2p/internal/sim"
	"manetp2p/internal/trace"
)

// minGap clamps every drawn inter-query gap: a Poisson burst may draw
// arbitrarily small gaps, and a gap of zero would fire queries in a
// same-instant loop.
const minGap = 10 * sim.Millisecond

// maxSkew bounds the drifting Zipf exponent; beyond this the weights
// underflow and every pick is rank 0 anyway.
const maxSkew = 8.0

// Engine drives one replication's demand. It implements the p2p.Demand
// interface structurally (NextGap/PickFile plus the telemetry hooks)
// without importing the p2p package, and draws all randomness from its
// own stream so enabling a workload never perturbs the other layers'
// draws. Not safe for concurrent use: one Engine per Sim.
type Engine struct {
	s      *sim.Sim
	rng    *rand.Rand
	plan   Plan // defaults resolved
	tracer *trace.Tracer

	classOf []int // node -> index into plan.Sessions.Classes

	// Per-node arrival state.
	on         []bool     // OnOff dwell state
	stateUntil []sim.Time // OnOff dwell boundary
	pending    []bool     // demand arrived, not yet resolved/expired/aborted
	offeredAt  []sim.Time // first arrival of the pending demand
	issuedAt   []sim.Time // last query issue

	weights []float64 // Zipf weight scratch, one per file

	phase int // index of the active phase; -1 before the first

	ledger      Counters // demand conservation
	classIssued []uint64

	// Latency samples, seconds.
	ttfr       []float64
	completion []float64
}

// New builds the demand engine for one replication: nodes many peers
// over numFiles file ranks. The rng must be a dedicated stream (the
// caller gates its creation on the plan being present, mirroring the
// fault injector, so plan-free runs draw identically to older builds).
// The tracer may be nil.
func New(s *sim.Sim, rng *rand.Rand, plan Plan, nodes, numFiles int, tracer *trace.Tracer) *Engine {
	e := &Engine{
		s:          s,
		rng:        rng,
		plan:       plan.withDefaults(),
		tracer:     tracer,
		classOf:    make([]int, nodes),
		on:         make([]bool, nodes),
		stateUntil: make([]sim.Time, nodes),
		pending:    make([]bool, nodes),
		offeredAt:  make([]sim.Time, nodes),
		issuedAt:   make([]sim.Time, nodes),
		weights:    make([]float64, numFiles),
		phase:      -1,
	}
	classes := e.plan.Sessions.Classes
	e.classIssued = make([]uint64, len(classes))
	total := 0.0
	for _, c := range classes {
		total += c.Weight
	}
	counts := make([]int, len(classes))
	for i := range e.classOf {
		r := e.rng.Float64() * total
		for ci, c := range classes {
			if r < c.Weight || ci == len(classes)-1 {
				e.classOf[i] = ci
				counts[ci]++
				break
			}
			r -= c.Weight
		}
	}
	if e.tracer != nil {
		for ci, c := range classes {
			e.tracer.Emit(trace.KindWorkload, -1, -1, "class %s: %d nodes", trace.Str(c.Name), trace.Int(counts[ci]))
		}
	}
	return e
}

// NextGap draws node's next inter-query gap under the active arrival
// process, session class and phase — the arrival hot path, allocation
// free. Every draw is checked against the process bounds; breaches
// count in Counters().BoundsViol for the invariant checker.
func (e *Engine) NextGap(node int) sim.Time {
	now := e.s.Now()
	scale := e.rateScale(node, now)
	a := &e.plan.Arrival
	var gap, lo, hi sim.Time
	switch a.Process {
	case Poisson:
		gap = expGap(e.rng, a.Rate*scale)
	case OnOff:
		gap = e.onOffGap(node, now, a.Rate*scale)
	case Diurnal:
		gap = e.diurnalGap(now, a.Rate*scale)
	default:
		lo, hi = scaleGap(a.GapMin, scale), scaleGap(a.GapMax, scale)
		gap = sim.UniformDuration(e.rng, lo, hi)
	}
	if gap < minGap {
		gap = minGap
	}
	if lo < minGap {
		lo = minGap
	}
	if hi > 0 && hi < minGap {
		hi = minGap // hi == 0 means unbounded (rate processes)
	}
	if gap < lo || (hi > 0 && gap > hi) {
		e.ledger.BoundsViol++
	}
	return gap
}

// scaleGap divides a configured gap by the rate scale (a faster rate
// means shorter gaps). Scale 1 keeps the exact configured value.
func scaleGap(t sim.Time, scale float64) sim.Time {
	if scale == 1 || scale <= 0 {
		return t
	}
	return sim.Time(float64(t) / scale)
}

// expGap draws an exponential gap for a Poisson process at rate per
// second.
func expGap(rng *rand.Rand, rate float64) sim.Time {
	return sim.FromSeconds(rng.ExpFloat64() / rate)
}

// onOffGap advances node's two-state dwell machine to cover now, then
// walks forward until an on-state arrival lands inside its dwell.
func (e *Engine) onOffGap(node int, now sim.Time, rate float64) sim.Time {
	a := &e.plan.Arrival
	for e.stateUntil[node] <= now {
		e.on[node] = !e.on[node]
		mean := a.MeanOff
		if e.on[node] {
			mean = a.MeanOn
		}
		e.stateUntil[node] += sim.ExpDuration(e.rng, mean)
	}
	t := now
	for {
		if e.on[node] {
			g := expGap(e.rng, rate)
			if t+g <= e.stateUntil[node] {
				return t + g - now
			}
			t = e.stateUntil[node]
			e.on[node] = false
			e.stateUntil[node] = t + sim.ExpDuration(e.rng, a.MeanOff)
		} else {
			t = e.stateUntil[node]
			e.on[node] = true
			e.stateUntil[node] = t + sim.ExpDuration(e.rng, a.MeanOn)
		}
	}
}

// diurnalGap draws from the sinusoidally modulated Poisson process by
// thinning a homogeneous process at the peak rate. Amplitude < 1 keeps
// the instantaneous rate positive, so the loop terminates.
func (e *Engine) diurnalGap(now sim.Time, base float64) sim.Time {
	a := &e.plan.Arrival
	rmax := base * (1 + a.Amplitude)
	t := now
	for {
		t += expGap(e.rng, rmax)
		frac := float64(t%a.Period) / float64(a.Period)
		r := base * (1 + a.Amplitude*math.Sin(2*math.Pi*frac))
		if e.rng.Float64()*rmax <= r {
			return t - now
		}
	}
}

// rateScale composes the node's class scale with the active phase's.
func (e *Engine) rateScale(node int, now sim.Time) float64 {
	s := e.plan.Sessions.Classes[e.classOf[node]].RateScale
	e.advancePhase(now)
	if e.phase >= 0 {
		if ps := e.plan.Phases[e.phase].RateScale; ps != 0 {
			s *= ps
		}
	}
	return s
}

// advancePhase moves the phase cursor up to now, tracing transitions.
func (e *Engine) advancePhase(now sim.Time) {
	for e.phase+1 < len(e.plan.Phases) && e.plan.Phases[e.phase+1].Start <= now {
		e.phase++
		if e.tracer != nil {
			ph := &e.plan.Phases[e.phase]
			e.tracer.Emit(trace.KindPhase, -1, -1, "phase %s rate=%g hot=%d boost=%g",
				trace.Str(ph.Name), trace.Float(ph.RateScale), trace.Int(ph.HotFiles), trace.Float(ph.HotBoost))
		}
	}
}

// PickFile chooses the file rank node asks for next: a flash-crowd hot
// pick when the active phase scripts one, otherwise a Zipf draw at the
// current (drifted) exponent over the rotated ranking. Files the node
// holds are skipped (a peer does not search for what it has); returns
// -1 only when the node holds everything.
func (e *Engine) PickFile(node int, held []bool) int {
	nf := len(held)
	if nf == 0 {
		return -1
	}
	if nf > len(e.weights) {
		e.weights = make([]float64, nf)
	}
	now := e.s.Now()
	e.advancePhase(now)
	rot := 0
	if p := &e.plan.Popularity; p.RotateEvery > 0 {
		rot = int(now/p.RotateEvery) * p.RotateStep
	}
	if e.phase >= 0 {
		ph := &e.plan.Phases[e.phase]
		if ph.HotFiles > 0 && ph.HotBoost > 0 && e.rng.Float64() < ph.HotBoost {
			hot := ph.HotFiles
			if hot > nf {
				hot = nf
			}
			if f := rankFile(e.rng.Intn(hot), rot, nf); !held[f] {
				return f
			}
		}
	}
	skew := e.skew(now)
	total := 0.0
	for i := 0; i < nf; i++ {
		w := math.Pow(float64(i+1), -skew)
		e.weights[i] = w
		total += w
	}
	for try := 0; try < 8; try++ {
		u := e.rng.Float64() * total
		rank := nf - 1
		for i := 0; i < nf; i++ {
			u -= e.weights[i]
			if u < 0 {
				rank = i
				break
			}
		}
		if f := rankFile(rank, rot, nf); !held[f] {
			return f
		}
	}
	// Dense holdings: fall back to the first unheld rank in popularity
	// order rather than rejection-sampling forever.
	for i := 0; i < nf; i++ {
		if f := rankFile(i, rot, nf); !held[f] {
			return f
		}
	}
	return -1
}

// rankFile maps a popularity rank through the rotation offset onto a
// concrete file index.
func rankFile(rank, rot, nf int) int {
	return (rank + rot) % nf
}

// skew evaluates the drifting Zipf exponent at now.
func (e *Engine) skew(now sim.Time) float64 {
	p := &e.plan.Popularity
	s := p.Skew + p.DriftPerHour*now.Seconds()/3600
	if s < 0 {
		return 0
	}
	if s > maxSkew {
		return maxSkew
	}
	return s
}

// Offered records a demand arrival firing at node: a new pending demand
// the first time, a retry while earlier demand is still unserved (no
// peers, query window open, etc).
func (e *Engine) Offered(node int) {
	if e.pending[node] {
		e.ledger.Retries++
		return
	}
	e.pending[node] = true
	e.ledger.Pending++
	e.ledger.Offered++
	e.offeredAt[node] = e.s.Now()
}

// Issued records that node actually sent a query for its pending demand.
func (e *Engine) Issued(node int) {
	e.ledger.Issued++
	e.ledger.InFlight++
	e.classIssued[e.classOf[node]]++
	e.issuedAt[node] = e.s.Now()
}

// FirstAnswer records the first hit of the open query: time-to-first-
// result (since issue) and completion latency (since the demand first
// arrived, so retries under churn count against it).
func (e *Engine) FirstAnswer(node int) {
	now := e.s.Now()
	e.ttfr = append(e.ttfr, (now - e.issuedAt[node]).Seconds())
	e.completion = append(e.completion, (now - e.offeredAt[node]).Seconds())
}

// Done closes node's query window: the demand resolved (found) or
// expired unanswered.
func (e *Engine) Done(node int, found bool) {
	if found {
		e.ledger.Resolved++
	} else {
		e.ledger.Expired++
	}
	e.ledger.InFlight--
	e.pending[node] = false
	e.ledger.Pending--
}

// Aborted records a query window cut short by the node leaving the
// overlay (churn, crash, battery death).
func (e *Engine) Aborted(node int) {
	e.ledger.Aborted++
	e.ledger.InFlight--
	e.pending[node] = false
	e.ledger.Pending--
}

// SessionChurn reports whether node's class churns on its own absolute
// means, enabling the death/birth process even in scenarios without a
// global churn configuration.
func (e *Engine) SessionChurn(node int) bool {
	return e.plan.Sessions.Classes[e.classOf[node]].MeanUptime > 0
}

// ChurnMeans composes node's class with the scenario's churn means:
// absolute class means win, otherwise the class scales the base.
func (e *Engine) ChurnMeans(node int, baseUp, baseDown sim.Time) (up, down sim.Time) {
	c := &e.plan.Sessions.Classes[e.classOf[node]]
	up, down = baseUp, baseDown
	if c.MeanUptime > 0 {
		up = c.MeanUptime
	} else if up > 0 && c.UptimeScale != 1 {
		up = sim.Time(float64(up) * c.UptimeScale)
	}
	if c.MeanDowntime > 0 {
		down = c.MeanDowntime
	} else if down > 0 && c.DowntimeScale != 1 {
		down = sim.Time(float64(down) * c.DowntimeScale)
	}
	return up, down
}

// Counters is the conservation ledger the invariant checker audits:
// Offered = Resolved + Expired + Aborted + Pending, and
// Issued = Resolved + Expired + Aborted + InFlight, with InFlight equal
// to the number of servents holding an open request. BoundsViol counts
// gap draws that escaped the configured process bounds (always zero
// unless the engine itself regresses).
type Counters struct {
	Offered, Retries, Issued      uint64
	Resolved, Expired, Aborted    uint64
	InFlight, Pending, BoundsViol uint64
}

// Counters snapshots the conservation ledger.
func (e *Engine) Counters() Counters { return e.ledger }

// DriftForTest corrupts the in-flight counter by one — the seeded
// mutation the invariant-checker tests use to prove the conservation
// rules actually fire.
func (e *Engine) DriftForTest() { e.ledger.InFlight++ }

// ClassStat is one session class's telemetry.
type ClassStat struct {
	Name   string
	Nodes  int
	Issued uint64
}

// Telemetry is one replication's demand outcome, harvested at the
// horizon.
type Telemetry struct {
	Counters // InFlight: open windows at the horizon

	TTFR       []float64 // seconds from issue to first answer
	Completion []float64 // seconds from demand arrival to first answer

	Classes []ClassStat
}

// Snapshot harvests the telemetry (call after the run; slices are
// copies).
func (e *Engine) Snapshot() Telemetry {
	t := Telemetry{
		Counters:   e.ledger,
		TTFR:       append([]float64(nil), e.ttfr...),
		Completion: append([]float64(nil), e.completion...),
	}
	counts := make([]int, len(e.plan.Sessions.Classes))
	for _, ci := range e.classOf {
		counts[ci]++
	}
	for ci, c := range e.plan.Sessions.Classes {
		t.Classes = append(t.Classes, ClassStat{
			Name: c.Name, Nodes: counts[ci], Issued: e.classIssued[ci],
		})
	}
	return t
}
