// Package manetp2p reproduces "Peer-to-Peer over Ad-hoc Networks:
// (Re)Configuration Algorithms" (Franciscani, Vasconcelos, Couto,
// Loureiro — IPDPS 2003): four algorithms that build and maintain a p2p
// overlay on a mobile ad-hoc network, evaluated on a discrete-event
// MANET simulator with AODV routing, Random Waypoint mobility and a
// Gnutella-style query workload.
//
// The public API is scenario-oriented:
//
//	sc := manetp2p.DefaultScenario(50, manetp2p.Regular)
//	res, err := manetp2p.Run(sc)
//	fmt.Println(res.ConnectSeries) // Figure 7's curve
//
// Run executes the scenario's replications concurrently (one goroutine
// per replication up to GOMAXPROCS) and aggregates the paper's metrics:
// per-file distance/answer curves (Figures 5–6) and per-node
// descending message-count series (Figures 7–12).
package manetp2p

import (
	"fmt"

	"manetp2p/internal/aodv"
	"manetp2p/internal/fault"
	"manetp2p/internal/geom"
	"manetp2p/internal/invariant"
	"manetp2p/internal/manet"
	"manetp2p/internal/p2p"
	"manetp2p/internal/radio"
	"manetp2p/internal/sim"
	"manetp2p/internal/workload"
)

// Algorithm selects one of the paper's four (re)configuration
// algorithms.
type Algorithm = p2p.Algorithm

// The four algorithms of §6.
const (
	Basic   = p2p.Basic
	Regular = p2p.Regular
	Random  = p2p.Random
	Hybrid  = p2p.Hybrid
)

// Algorithms lists all four in the paper's order.
func Algorithms() []Algorithm { return p2p.Algorithms() }

// Params re-exports the protocol constants of Table 2.
type Params = p2p.Params

// DefaultParams returns Table 2 plus this reproduction's timing
// defaults.
func DefaultParams() Params { return p2p.DefaultParams() }

// FileConfig re-exports the Zipf content model of §7.2.
type FileConfig = p2p.FileConfig

// Duration is simulated time; use FromSeconds or the sim package units.
type Duration = sim.Time

// Seconds converts a float seconds value into a Duration.
func Seconds(s float64) Duration { return sim.FromSeconds(s) }

// QualifierConfig re-exports the hybrid qualifier assignment model.
type QualifierConfig = manet.QualifierConfig

// ChurnConfig re-exports the death/birth process configuration.
type ChurnConfig = manet.ChurnConfig

// EnergyConfig re-exports the battery model configuration.
type EnergyConfig = radio.EnergyConfig

// DeviceClasses returns the heterogeneous phone/PDA/notebook population
// the paper motivates for the Hybrid algorithm.
func DeviceClasses() QualifierConfig { return manet.DeviceClasses() }

// RoutingKind selects the network-layer protocol under the overlay.
type RoutingKind = manet.RoutingKind

// The available routing substrates.
const (
	RoutingAODV  = manet.RoutingAODV
	RoutingDSR   = manet.RoutingDSR
	RoutingFlood = manet.RoutingFlood
	RoutingDSDV  = manet.RoutingDSDV
)

// MobilityKind selects the movement model.
type MobilityKind = manet.MobilityKind

// The available mobility models.
const (
	MobilityWaypoint    = manet.MobilityWaypoint
	MobilityStationary  = manet.MobilityStationary
	MobilityWalk        = manet.MobilityWalk
	MobilityDirection   = manet.MobilityDirection
	MobilityGaussMarkov = manet.MobilityGaussMarkov
)

// DefaultEnergy returns a finite battery profile with the given capacity
// in joules.
func DefaultEnergy(capacityJ float64) EnergyConfig { return radio.DefaultEnergy(capacityJ) }

// FaultPlan re-exports the scripted fault-injection timeline: a list of
// typed events executed deterministically during every replication.
type FaultPlan = fault.Plan

// FaultEvent is one entry of a FaultPlan.
type FaultEvent = fault.Event

// FaultKind identifies a fault event type.
type FaultKind = fault.Kind

// The fault event types.
const (
	FaultPartition  = fault.Partition
	FaultJam        = fault.Jam
	FaultLossBurst  = fault.LossBurst
	FaultCrashGroup = fault.CrashGroup
	FaultLinkFlap   = fault.LinkFlap
)

// FaultAxis selects a partition cut orientation.
type FaultAxis = fault.Axis

// Partition cut orientations.
const (
	AxisX = fault.AxisX
	AxisY = fault.AxisY
)

// PartitionFault scripts an arena split along axis = pos for dur
// starting at at: no frame crosses the line while it is active.
func PartitionFault(at, dur Duration, axis FaultAxis, pos float64) FaultEvent {
	return fault.PartitionEvent(at, dur, axis, pos)
}

// JamFault scripts a circular jammed region centred at (x, y) whose
// deliveries suffer the added loss probability.
func JamFault(at, dur Duration, x, y, radius, loss float64) FaultEvent {
	return fault.JamEvent(at, dur, geom.Point{X: x, Y: y}, radius, loss)
}

// LossBurstFault scripts a global loss spike of the given probability.
func LossBurstFault(at, dur Duration, loss float64) FaultEvent {
	return fault.LossBurstEvent(at, dur, loss)
}

// CrashGroupFault scripts a correlated crash of count members,
// restarted when the event clears.
func CrashGroupFault(at, dur Duration, count int) FaultEvent {
	return fault.CrashGroupEvent(at, dur, count)
}

// CrashFractionFault scripts a correlated crash of a fraction of the
// membership, restarted when the event clears.
func CrashFractionFault(at, dur Duration, fraction float64) FaultEvent {
	return fault.CrashFractionEvent(at, dur, fraction)
}

// LinkFlapFault scripts periodic link outages: within [at, at+dur),
// every period starts with downFor of dead air.
func LinkFlapFault(at, dur, period, downFor Duration) FaultEvent {
	return fault.LinkFlapEvent(at, dur, period, downFor)
}

// WorkloadPlan re-exports the scriptable demand model
// (internal/workload): arrival process, evolving content popularity,
// session classes and a phase timeline. A nil plan keeps the paper's
// built-in query loop byte-identically.
type WorkloadPlan = workload.Plan

// WorkloadArrival configures the demand arrival process.
type WorkloadArrival = workload.Arrival

// WorkloadProcess identifies an arrival process.
type WorkloadProcess = workload.Process

// The arrival processes.
const (
	ArrivalUniform = workload.Uniform
	ArrivalPoisson = workload.Poisson
	ArrivalOnOff   = workload.OnOff
	ArrivalDiurnal = workload.Diurnal
)

// WorkloadPopularity configures the evolving Zipf content popularity.
type WorkloadPopularity = workload.Popularity

// WorkloadSessions configures the per-node session-class mix.
type WorkloadSessions = workload.Sessions

// WorkloadSessionClass is one session class (seeder, free-rider, ...).
type WorkloadSessionClass = workload.SessionClass

// WorkloadPhase is one entry of the phase timeline (ramp, steady,
// flash crowd, drain).
type WorkloadPhase = workload.Phase

// DefaultWorkloadSessions returns the seeder / free-rider / transient
// population mix.
func DefaultWorkloadSessions() WorkloadSessions { return workload.DefaultSessions() }

// InvariantConfig re-exports the runtime invariant checker
// configuration (internal/invariant): sampling period, grace window for
// in-flight cross-node inconsistencies, and the violation recording cap.
type InvariantConfig = invariant.Config

// InvariantViolation is one detected cross-layer invariant breach,
// stamped with the simulated time and the node(s) involved.
type InvariantViolation = invariant.Violation

// Scenario describes one experiment: a node population, an algorithm,
// the protocol parameters and the measurement horizon.
type Scenario struct {
	Name      string    // label used in reports
	Algorithm Algorithm // which (re)configuration algorithm the servents run

	NumNodes       int     // ad-hoc nodes (paper: 50 and 150)
	MemberFraction float64 // fraction in the p2p overlay (paper: 0.75)
	AreaSide       float64 // square arena side, metres (paper: 100)
	Range          float64 // radio range, metres (paper: 10)

	Params Params     // Table 2 protocol constants
	Files  FileConfig // Zipf content model
	Quals  manet.QualifierConfig

	MaxSpeed   float64            // Random Waypoint max speed, m/s (paper: 1.0)
	MaxPause   Duration           // Random Waypoint max pause (paper: 100 s)
	Stationary bool               // freeze all nodes (isolates mobility effects)
	Mobility   manet.MobilityKind // movement model (default: Random Waypoint)

	Duration     Duration // simulated time per replication (paper: 3600 s)
	Replications int      // independent runs (paper: 33)
	Seed         int64    // base seed; replication r uses Seed + r

	// Optional extensions (paper §8 future work).
	Churn    manet.ChurnConfig  // death/birth process; zero = disabled
	Energy   radio.EnergyConfig // battery model; zero = infinite
	LossProb float64            // link-layer loss probability

	// Routing substrate (paper: AODV; DSR and flooding enable the
	// routing comparison its companion study [13] performed).
	Routing manet.RoutingKind

	// Overlay-graph sampling for the small-world analysis.
	SnapshotEvery Duration // 0 = no snapshots

	// TrafficBucket > 0 collects network-wide message-rate series
	// (Result.ConnectTraffic / QueryTraffic), e.g. 60 s buckets.
	TrafficBucket Duration

	// Faults optionally scripts targeted failures — partitions,
	// regional jamming, loss bursts, correlated crashes, link flaps —
	// executed identically (same seed ⇒ same failures) in every
	// replication. Recovery metrics land in Result.Resilience.
	Faults FaultPlan

	// HealthEvery sets the resilience-telemetry sampling period
	// (largest-component fraction, link count, message rates). Zero
	// defaults to 10 s whenever Faults is non-empty; telemetry stays
	// off in fault-free runs unless set explicitly.
	HealthEvery Duration

	// TraceCapacity > 0 enables structured event tracing in
	// single-Simulation use (NewSimulation); Run ignores it because
	// traces from 33 replications are rarely what anyone wants.
	TraceCapacity int

	// Workload optionally replaces the paper's built-in query loop with
	// the scriptable demand engine (internal/workload). Nil (the
	// default) keeps every existing scenario bit-identical; a set plan
	// adds the Result.Workload telemetry block.
	Workload *WorkloadPlan `json:",omitempty"`

	// Invariants optionally arms the runtime invariant checker in every
	// replication; findings land in Result.Invariants. Nil (the default)
	// disables it entirely — the checker is strictly opt-in and costs
	// nothing when off. Enabling it does not change measured results:
	// the checker only observes and draws no randomness.
	Invariants *InvariantConfig `json:",omitempty"`

	// Concurrency: 0 = GOMAXPROCS.
	Workers int
}

// DefaultScenario returns the paper's Table 2 setup for n nodes running
// alg, with the full 3600 s × 33 replications horizon.
func DefaultScenario(n int, alg Algorithm) Scenario {
	return Scenario{
		Name:           fmt.Sprintf("%s-%d", alg, n),
		Algorithm:      alg,
		NumNodes:       n,
		MemberFraction: 0.75,
		AreaSide:       100,
		Range:          10,
		Params:         DefaultParams(),
		Files:          p2p.DefaultFileConfig(),
		Quals:          manet.DefaultQualifiers(),
		MaxSpeed:       1.0,
		MaxPause:       100 * sim.Second,
		Duration:       3600 * sim.Second,
		Replications:   33,
		Seed:           1,
		SnapshotEvery:  300 * sim.Second,
	}
}

// Validate reports a descriptive error for inconsistent scenarios.
func (sc Scenario) Validate() error {
	switch {
	case sc.NumNodes < 1:
		return fmt.Errorf("manetp2p: NumNodes %d < 1", sc.NumNodes)
	case sc.MemberFraction <= 0 || sc.MemberFraction > 1:
		return fmt.Errorf("manetp2p: MemberFraction %v outside (0,1]", sc.MemberFraction)
	case sc.AreaSide <= 0:
		return fmt.Errorf("manetp2p: AreaSide %v not positive", sc.AreaSide)
	case sc.Range <= 0:
		return fmt.Errorf("manetp2p: Range %v not positive", sc.Range)
	case sc.MaxSpeed <= 0:
		return fmt.Errorf("manetp2p: MaxSpeed %v not positive", sc.MaxSpeed)
	case sc.Duration <= 0:
		return fmt.Errorf("manetp2p: Duration %v not positive", sc.Duration)
	case sc.Replications < 1:
		return fmt.Errorf("manetp2p: Replications %d < 1", sc.Replications)
	case sc.HealthEvery < 0:
		return fmt.Errorf("manetp2p: HealthEvery %v negative", sc.HealthEvery)
	}
	if err := sc.Faults.Validate(); err != nil {
		return fmt.Errorf("manetp2p: fault plan: %w", err)
	}
	if err := sc.Params.Validate(); err != nil {
		return err
	}
	if sc.Invariants != nil {
		if err := sc.Invariants.Validate(); err != nil {
			return fmt.Errorf("manetp2p: %w", err)
		}
	}
	if sc.Workload != nil {
		if err := sc.Workload.Validate(); err != nil {
			return fmt.Errorf("manetp2p: workload plan: %w", err)
		}
	}
	return sc.Files.Validate()
}

// manetConfig translates a Scenario into one replication's config.
func (sc Scenario) manetConfig(rep int) manet.Config {
	mob := manet.DefaultMobility()
	mob.MaxSpeed = sc.MaxSpeed
	if mob.MinSpeed > sc.MaxSpeed {
		mob.MinSpeed = sc.MaxSpeed / 10
	}
	mob.MaxPause = sc.MaxPause
	mob.Kind = sc.Mobility
	if sc.Stationary {
		mob.Kind = manet.MobilityStationary
	}
	cfg := manet.Config{
		Seed:           sc.Seed + int64(rep),
		NumNodes:       sc.NumNodes,
		MemberFraction: sc.MemberFraction,
		Arena:          geom.Rect{W: sc.AreaSide, H: sc.AreaSide},
		Range:          sc.Range,
		Algorithm:      sc.Algorithm,
		Params:         sc.Params,
		Files:          sc.Files,
		Mobility:       mob,
		Qualifiers:     sc.Quals,
		Churn:          sc.Churn,
		Latency:        2 * sim.Millisecond,
		Jitter:         sim.Millisecond,
		LossProb:       sc.LossProb,
		Energy:         sc.Energy,
		Routing:        sc.Routing,
		AODV:           aodv.Config{},
		TrafficBucket:  sc.TrafficBucket,
		Faults:         sc.Faults,
		HealthEvery:    sc.healthEvery(),
	}
	if sc.Invariants != nil {
		cfg.Invariants = *sc.Invariants
	}
	cfg.Workload = sc.Workload
	return cfg
}

// healthEvery resolves the effective telemetry period: explicit value,
// else 10 s whenever faults are scripted, else off.
func (sc Scenario) healthEvery() sim.Time {
	if sc.HealthEvery > 0 {
		return sc.HealthEvery
	}
	if !sc.Faults.Empty() {
		return 10 * sim.Second
	}
	return 0
}

// Simulation is a single live replication, exposed for interactive use
// (examples, visual tools). For measurements use Run instead.
type Simulation struct {
	Net *manet.Network
}

// NewSimulation builds one replication of the scenario (replication
// index 0) without running it.
func NewSimulation(sc Scenario) (*Simulation, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg := sc.manetConfig(0)
	cfg.TraceCapacity = sc.TraceCapacity
	net, err := manet.Build(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulation{Net: net}, nil
}

// Step advances the simulation by d.
func (s *Simulation) Step(d Duration) { s.Net.Run(d) }

// Now returns the current simulated time.
func (s *Simulation) Now() Duration { return s.Net.Sim.Now() }
