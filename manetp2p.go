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
	"io"

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

// ParseAlgorithm resolves an algorithm by name, ignoring case.
func ParseAlgorithm(name string) (Algorithm, error) { return p2p.ParseAlgorithm(name) }

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

// Routings lists every routing substrate.
func Routings() []RoutingKind { return manet.Routings() }

// ParseRouting resolves a routing substrate by name, ignoring case.
func ParseRouting(name string) (RoutingKind, error) { return manet.ParseRouting(name) }

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

// Mobilities lists every movement model.
func Mobilities() []MobilityKind { return manet.Mobilities() }

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
// the protocol parameters and the measurement horizon. It is the one
// configuration type from file or flag to the simulated world (see
// internal/manet): Validate holds every rule once.
type Scenario = manet.Scenario

// DefaultScenario returns the paper's Table 2 setup for n nodes running
// alg, with the full 3600 s × 33 replications horizon.
func DefaultScenario(n int, alg Algorithm) Scenario { return manet.DefaultScenario(n, alg) }

// Simulation is a single live replication, exposed for interactive use
// (examples, visual tools). For measurements use Run instead.
type Simulation struct {
	Net *manet.Network
}

// NewSimulation builds one replication of the scenario (replication
// index 0) without running it.
func NewSimulation(sc Scenario) (*Simulation, error) {
	net, err := manet.Build(sc, 0, manet.Options{})
	if err != nil {
		return nil, err
	}
	return &Simulation{Net: net}, nil
}

// Step advances the simulation by d.
func (s *Simulation) Step(d Duration) { s.Net.Run(d) }

// Now returns the current simulated time.
func (s *Simulation) Now() Duration { return s.Net.Sim.Now() }

// WriteTrace runs replication 0 of the scenario to its horizon, as
// NewSimulation and Step do, streaming each traced event to w as one JSON
// line when it happens. It returns the build's or the first write's error.
func WriteTrace(sc Scenario, w io.Writer) error {
	net, err := manet.Build(sc, 0, manet.Options{Trace: w})
	if err != nil {
		return err
	}
	net.Run(sc.Duration)
	return net.Tracer.Err()
}
