// Package workload generates the query demand a scenario puts on the
// overlay. The paper evaluates its four (re)configuration algorithms
// under one fixed model — every servent draws a uniform 15–45 s gap
// between queries over a static Zipf placement (§7.2) — but the
// algorithms exist to survive changing conditions, so this package
// makes demand scriptable while keeping every draw deterministic:
//
//   - arrival processes: the paper's uniform-gap baseline, Poisson,
//     bursty on/off (MMPP-style), and a diurnal sinusoid;
//   - evolving popularity: Zipf picks with a drifting exponent and
//     periodic hot-set rotation, layered over the static placement of
//     internal/p2p/files.go (what nodes HOLD never changes — what they
//     WANT does);
//   - session classes (seeder / free-rider / transient) scaling both
//     the per-node query rate and the manet churn means;
//   - a phase timeline (ramp → steady → flash crowd → drain) scaling
//     the arrival rate and optionally focusing picks on a hot set.
//
// The Engine also owns the demand telemetry: offered vs issued vs
// resolved counts, time-to-first-result and completion latencies, and
// the conservation counters the invariant checker cross-checks against
// the servents' open requests.
package workload

import (
	"fmt"
	"strings"

	"manetp2p/internal/sim"
)

// Process selects the arrival process that spaces a node's queries.
type Process int

const (
	// Uniform is the paper's baseline: a uniform gap in [GapMin, GapMax].
	Uniform Process = iota
	// Poisson spaces queries with exponential gaps at Rate per second.
	Poisson
	// OnOff is a two-state burst process: exponential on/off dwells
	// (means MeanOn/MeanOff) with Poisson arrivals at Rate while on and
	// silence while off — an MMPP-style bursty source.
	OnOff
	// Diurnal modulates a Poisson process sinusoidally over Period:
	// rate(t) = Rate·(1 + Amplitude·sin(2πt/Period)).
	Diurnal
)

// processNames names each process as the JSON plan does, indexed by
// Process; String, ParseProcess and the error messages' lists read it.
var processNames = [...]string{Uniform: "uniform", Poisson: "poisson", OnOff: "onoff", Diurnal: "diurnal"}

// String names the process as the JSON plan does.
func (p Process) String() string {
	if p < 0 || int(p) >= len(processNames) {
		return fmt.Sprintf("process(%d)", int(p))
	}
	return processNames[p]
}

// ParseProcess resolves a JSON process tag; "" means Uniform so a zero
// arrival block keeps the paper's behavior.
func ParseProcess(s string) (Process, error) {
	if s == "" {
		return Uniform, nil
	}
	for p, name := range processNames {
		if s == name {
			return Process(p), nil
		}
	}
	return 0, fmt.Errorf("workload: unknown arrival process %q (valid: %s)", s, strings.Join(processNames[:], ", "))
}

// Arrival configures the inter-query arrival process. The zero value is
// the paper's baseline (uniform 15–45 s gap).
type Arrival struct {
	Process Process

	// Uniform: gap bounds. Both zero defaults to the paper's 15 s/45 s.
	GapMin sim.Time
	GapMax sim.Time

	// Rate is the mean arrivals per second for Poisson, OnOff (while
	// on) and Diurnal (the base rate).
	Rate float64

	// OnOff dwell means; zero defaults to 60 s on / 180 s off.
	MeanOn  sim.Time
	MeanOff sim.Time

	// Diurnal cycle length (zero defaults to 600 s) and modulation
	// depth in [0, 1) (zero defaults to 0.8).
	Period    sim.Time
	Amplitude float64
}

// maxRate bounds configured arrival rates: beyond this the sim spends
// all its time firing query events (the engine also clamps every drawn
// gap to minGap).
const maxRate = 1000.0

// Validate reports a descriptive error for an inconsistent arrival
// configuration.
func (a Arrival) Validate() error {
	switch a.Process {
	case Uniform:
		switch {
		case a.GapMin < 0 || a.GapMax < 0:
			return fmt.Errorf("workload: negative uniform gap bounds [%v, %v]", a.GapMin, a.GapMax)
		case a.GapMax < a.GapMin:
			return fmt.Errorf("workload: uniform GapMax %v < GapMin %v", a.GapMax, a.GapMin)
		}
	case Poisson, OnOff, Diurnal:
		if a.Rate <= 0 || a.Rate > maxRate {
			return fmt.Errorf("workload: %s rate %v outside (0, %g] per second", a.Process, a.Rate, maxRate)
		}
		if a.Process == OnOff && (a.MeanOn < 0 || a.MeanOff < 0) {
			return fmt.Errorf("workload: negative on/off dwell means [%v, %v]", a.MeanOn, a.MeanOff)
		}
		if a.Process == Diurnal {
			if a.Period < 0 {
				return fmt.Errorf("workload: diurnal period %v negative", a.Period)
			}
			if a.Amplitude < 0 || a.Amplitude >= 1 {
				return fmt.Errorf("workload: diurnal amplitude %v outside [0, 1)", a.Amplitude)
			}
		}
	default:
		return fmt.Errorf("workload: unknown arrival process %d (valid: %s)", int(a.Process), strings.Join(processNames[:], ", "))
	}
	return nil
}

// withDefaults resolves the zero-value conventions.
func (a Arrival) withDefaults() Arrival {
	switch a.Process {
	case Uniform:
		if a.GapMin == 0 && a.GapMax == 0 {
			a.GapMin, a.GapMax = 15*sim.Second, 45*sim.Second
		}
	case OnOff:
		if a.MeanOn == 0 {
			a.MeanOn = 60 * sim.Second
		}
		if a.MeanOff == 0 {
			a.MeanOff = 180 * sim.Second
		}
	case Diurnal:
		if a.Period == 0 {
			a.Period = 600 * sim.Second
		}
		if a.Amplitude == 0 {
			a.Amplitude = 0.8
		}
	}
	return a
}

// Popularity evolves WHICH files are requested over time. Ranks follow
// a Zipf law with exponent Skew(t) = Skew + DriftPerHour·hours (clamped
// to ≥ 0); RotateEvery periodically shifts which concrete file holds
// rank 0 by RotateStep, modelling interest moving through the catalog.
// The zero value means Zipf with exponent 1 and no rotation.
type Popularity struct {
	Skew         float64  // Zipf exponent at t = 0; 0 defaults to 1
	DriftPerHour float64  // added to Skew per simulated hour (may be negative)
	RotateEvery  sim.Time // hot-set rotation period; 0 = no rotation
	RotateStep   int      // ranks shifted per rotation; 0 defaults to 1
}

// Validate reports a descriptive error for inconsistent popularity
// configuration.
func (p Popularity) Validate() error {
	switch {
	case p.Skew < 0:
		return fmt.Errorf("workload: popularity skew %v negative", p.Skew)
	case p.RotateEvery < 0:
		return fmt.Errorf("workload: rotate period %v negative", p.RotateEvery)
	case p.RotateStep < 0:
		return fmt.Errorf("workload: rotate step %d negative", p.RotateStep)
	}
	return nil
}

func (p Popularity) withDefaults() Popularity {
	if p.Skew == 0 {
		p.Skew = 1
	}
	if p.RotateStep == 0 {
		p.RotateStep = 1
	}
	return p
}

// SessionClass is one node population in the session mix. Every node is
// assigned a class at build time by Weight; the class scales its query
// rate and its churn behavior.
type SessionClass struct {
	Name   string
	Weight float64 // relative population share; must be > 0

	// RateScale multiplies the arrival rate (divides gaps); 0 means 1.
	RateScale float64

	// Churn composition with manet.ChurnConfig: absolute means override
	// the scenario's (enabling churn for this class even when the
	// scenario has none); otherwise the scales multiply the scenario's
	// means when churn is on. Zero scales mean 1.
	UptimeScale   float64
	DowntimeScale float64
	MeanUptime    sim.Time
	MeanDowntime  sim.Time
}

// Validate reports a descriptive error for an inconsistent class.
func (c SessionClass) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("workload: session class without a name")
	case c.Weight <= 0:
		return fmt.Errorf("workload: session class %q weight %v not positive", c.Name, c.Weight)
	case c.RateScale < 0:
		return fmt.Errorf("workload: session class %q rate scale %v negative", c.Name, c.RateScale)
	case c.UptimeScale < 0 || c.DowntimeScale < 0:
		return fmt.Errorf("workload: session class %q negative churn scales", c.Name)
	case c.MeanUptime < 0 || c.MeanDowntime < 0:
		return fmt.Errorf("workload: session class %q negative churn means", c.Name)
	case c.MeanUptime > 0 && c.MeanDowntime == 0:
		return fmt.Errorf("workload: session class %q sets MeanUptime without MeanDowntime", c.Name)
	}
	return nil
}

func (c SessionClass) withDefaults() SessionClass {
	if c.RateScale == 0 {
		c.RateScale = 1
	}
	if c.UptimeScale == 0 {
		c.UptimeScale = 1
	}
	if c.DowntimeScale == 0 {
		c.DowntimeScale = 1
	}
	return c
}

// Sessions is the class mix. Empty means one homogeneous class.
type Sessions struct {
	Classes []SessionClass `json:"classes,omitempty"`
}

// DefaultSessions returns the seeder / free-rider / transient mix the
// churn experiments use: a few stable low-demand seeders, a majority of
// query-heavy free riders, and a transient population that churns even
// in scenarios without a global churn process.
func DefaultSessions() Sessions {
	return Sessions{Classes: []SessionClass{
		{Name: "seeder", Weight: 0.2, RateScale: 0.3, UptimeScale: 3},
		{Name: "freerider", Weight: 0.5, RateScale: 1.5},
		{Name: "transient", Weight: 0.3,
			MeanUptime: 600 * sim.Second, MeanDowntime: 120 * sim.Second},
	}}
}

// Phase is one segment of the demand timeline. Phases apply from Start
// until the next phase's Start; before the first phase everything runs
// at scale 1 with no hot set.
type Phase struct {
	Name  string
	Start sim.Time

	// RateScale multiplies arrival rates during the phase; 0 means 1
	// (use a small value, not 0, for a drain phase).
	RateScale float64

	// Flash crowd: with probability HotBoost a pick targets the HotFiles
	// currently most popular ranks instead of the Zipf draw.
	HotFiles int
	HotBoost float64
}

// Validate reports a descriptive error for an inconsistent phase.
func (p Phase) Validate() error {
	switch {
	case p.Start < 0 || p.Start > sim.Horizon:
		return fmt.Errorf("workload: phase %q start %v outside [0, %v]", p.Name, p.Start, sim.Horizon)
	case p.RateScale < 0:
		return fmt.Errorf("workload: phase %q rate scale %v negative", p.Name, p.RateScale)
	case p.HotFiles < 0:
		return fmt.Errorf("workload: phase %q hot files %d negative", p.Name, p.HotFiles)
	case p.HotBoost < 0 || p.HotBoost > 1:
		return fmt.Errorf("workload: phase %q hot boost %v outside [0, 1]", p.Name, p.HotBoost)
	}
	return nil
}

// Plan is one complete scripted workload. The zero value reproduces the
// paper's demand model (uniform 15–45 s gaps, Zipf-1 picks, one class,
// no phases); a scenario opts in by setting a (possibly zero) plan.
type Plan struct {
	Arrival    Arrival    `json:"arrival"`
	Popularity Popularity `json:"popularity"`
	Sessions   Sessions   `json:"sessions"`
	Phases     []Phase    `json:"phases,omitempty"`
}

// Validate reports a descriptive error for an inconsistent plan.
func (p Plan) Validate() error {
	if err := p.Arrival.Validate(); err != nil {
		return err
	}
	if err := p.Popularity.Validate(); err != nil {
		return err
	}
	for _, c := range p.Sessions.Classes {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	var last sim.Time
	for i, ph := range p.Phases {
		if err := ph.Validate(); err != nil {
			return err
		}
		if i > 0 && ph.Start < last {
			return fmt.Errorf("workload: phase %q starts at %v, before the previous phase's %v",
				ph.Name, ph.Start, last)
		}
		last = ph.Start
	}
	return nil
}

// withDefaults resolves every zero-value convention into an explicit
// plan for the engine. The authored plan is kept as-is in the scenario
// so JSON round-trips exactly.
func (p Plan) withDefaults() Plan {
	p.Arrival = p.Arrival.withDefaults()
	p.Popularity = p.Popularity.withDefaults()
	if len(p.Sessions.Classes) == 0 {
		p.Sessions.Classes = []SessionClass{{Name: "peer", Weight: 1}}
	}
	classes := make([]SessionClass, len(p.Sessions.Classes))
	for i, c := range p.Sessions.Classes {
		classes[i] = c.withDefaults()
	}
	p.Sessions.Classes = classes
	return p
}
