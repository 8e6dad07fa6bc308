package manet

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"manetp2p/internal/aodv"
	"manetp2p/internal/dsdv"
	"manetp2p/internal/dsr"
	"manetp2p/internal/fault"
	"manetp2p/internal/flood"
	"manetp2p/internal/geom"
	"manetp2p/internal/invariant"
	"manetp2p/internal/mobility"
	"manetp2p/internal/netif"
	"manetp2p/internal/p2p"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
	"manetp2p/internal/workload"
)

// RoutingKind selects the network-layer protocol under the overlay.
type RoutingKind int

const (
	// RoutingAODV is the paper's choice (§4).
	RoutingAODV RoutingKind = iota
	// RoutingDSR is Dynamic Source Routing, the classic on-demand
	// comparator from the study the paper bases its choice on.
	RoutingDSR
	// RoutingFlood is the no-routing baseline: every unicast floods.
	RoutingFlood
	// RoutingDSDV is the proactive distance-vector protocol, the third
	// member of the classic MANET routing comparison.
	RoutingDSDV
)

// NodeRouter is a routing instance bound to one node: the overlay-facing
// protocol plus the radio receive hook.
type NodeRouter interface {
	netif.Protocol
	HandleFrame(*radio.Frame)
}

// routings is the one table of routing substrates, indexed by kind:
// String, ParseRouting, Routings, Scenario.Validate's range check and
// Build's dispatch all read it, so a new router is one entry here.
var routings = [...]struct {
	name string
	new  func(id int, pl *route.Plane, opt Options) NodeRouter
}{
	RoutingAODV: {"AODV", func(id int, pl *route.Plane, opt Options) NodeRouter {
		cfg := aodv.DefaultConfig()
		if opt.AODV != nil {
			cfg = *opt.AODV
		}
		return aodv.NewRouter(id, pl, cfg)
	}},
	RoutingDSR: {"DSR", func(id int, pl *route.Plane, _ Options) NodeRouter {
		return dsr.NewRouter(id, pl, dsr.DefaultConfig())
	}},
	RoutingFlood: {"Flood", func(id int, pl *route.Plane, _ Options) NodeRouter {
		return flood.NewRouter(id, pl, flood.DefaultConfig())
	}},
	RoutingDSDV: {"DSDV", func(id int, pl *route.Plane, _ Options) NodeRouter {
		return dsdv.NewRouter(id, pl, dsdv.DefaultConfig())
	}},
}

func (k RoutingKind) valid() bool { return k >= 0 && int(k) < len(routings) }

// String names the routing protocol.
func (k RoutingKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("routing(%d)", int(k))
	}
	return routings[k].name
}

// Routings lists every routing substrate in kind order.
func Routings() []RoutingKind { return kinds[RoutingKind](len(routings)) }

// kinds lists the n values 0..n-1 of a table-indexed enum.
func kinds[K ~int](n int) []K {
	out := make([]K, n)
	for i := range out {
		out[i] = K(i)
	}
	return out
}

// ParseRouting resolves a routing substrate by name, ignoring case.
func ParseRouting(name string) (RoutingKind, error) {
	var names []string
	for k, r := range routings {
		if strings.EqualFold(r.name, name) {
			return RoutingKind(k), nil
		}
		names = append(names, strings.ToLower(r.name))
	}
	return 0, fmt.Errorf("unknown routing %q (%s)", name, strings.Join(names, "|"))
}

// MobilityKind selects the movement model.
type MobilityKind int

const (
	// MobilityWaypoint is the paper's Random Waypoint model.
	MobilityWaypoint MobilityKind = iota
	// MobilityStationary freezes all nodes (static-topology studies).
	MobilityStationary
	// MobilityWalk is a reflecting random walk (mobility sweeps).
	MobilityWalk
	// MobilityDirection is the Random Direction model (wall-to-wall
	// legs; avoids the waypoint center-density bias).
	MobilityDirection
	// MobilityGaussMarkov is the temporally correlated Gauss-Markov
	// model (smooth trajectories).
	MobilityGaussMarkov
)

// mobilities is the one table of movement models, indexed by kind; it
// plays the part for MobilityKind that routings plays for RoutingKind.
// Constructors take the speed band [lo, hi] m/s and the scenario's
// MaxPause.
var mobilities = [...]struct {
	name string
	new  func(arena geom.Rect, start geom.Point, lo, hi float64, pause sim.Time, rng *rand.Rand) mobility.Model
}{
	MobilityWaypoint: {"Waypoint", func(arena geom.Rect, start geom.Point, lo, hi float64, pause sim.Time, rng *rand.Rand) mobility.Model {
		return mobility.NewWaypoint(arena, start, lo, hi, pause, rng)
	}},
	MobilityStationary: {"Stationary", func(_ geom.Rect, start geom.Point, _, _ float64, _ sim.Time, _ *rand.Rand) mobility.Model {
		return mobility.Stationary{P: start}
	}},
	MobilityWalk: {"Walk", func(arena geom.Rect, start geom.Point, lo, hi float64, _ sim.Time, rng *rand.Rand) mobility.Model {
		return mobility.NewWalk(arena, start, lo, hi, 20*sim.Second, rng)
	}},
	MobilityDirection: {"Direction", func(arena geom.Rect, start geom.Point, lo, hi float64, pause sim.Time, rng *rand.Rand) mobility.Model {
		return mobility.NewDirection(arena, start, lo, hi, pause, rng)
	}},
	MobilityGaussMarkov: {"GaussMarkov", func(arena geom.Rect, start geom.Point, lo, hi float64, _ sim.Time, rng *rand.Rand) mobility.Model {
		return mobility.NewGaussMarkov(arena, start, (lo+hi)/2, 0.75, sim.Second, rng)
	}},
}

func (k MobilityKind) valid() bool { return k >= 0 && int(k) < len(mobilities) }

// String names the movement model.
func (k MobilityKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("mobility(%d)", int(k))
	}
	return mobilities[k].name
}

// Mobilities lists every movement model in kind order.
func Mobilities() []MobilityKind { return kinds[MobilityKind](len(mobilities)) }

// QualifierKind selects how hybrid qualifiers are assigned.
type QualifierKind int

const (
	// QualUniform draws each node's qualifier uniformly from [0,1) —
	// a heterogeneous population with a total order.
	QualUniform QualifierKind = iota
	// QualClasses draws from weighted device classes (e.g. phone, PDA,
	// notebook), the scenario §6.2 motivates.
	QualClasses
)

// QualClass is one device class for QualClasses.
type QualClass struct {
	Value  float64 // qualifier assigned to nodes of this class
	Weight float64 // relative frequency
}

// QualifierConfig parameterizes qualifier assignment.
type QualifierConfig struct {
	Kind    QualifierKind
	Classes []QualClass // used by QualClasses
}

// DeviceClasses returns the paper-motivated heterogeneous population:
// cellular phones, PDAs and notebooks (§1, §6.2).
func DeviceClasses() QualifierConfig {
	return QualifierConfig{Kind: QualClasses, Classes: []QualClass{
		{Value: 0.2, Weight: 0.5}, // phone
		{Value: 0.5, Weight: 0.3}, // PDA
		{Value: 0.9, Weight: 0.2}, // notebook
	}}
}

// ChurnConfig drives the death/birth process from the paper's future
// work: while enabled, every member alternates between up periods of
// mean MeanUptime and down periods of mean MeanDowntime (both
// exponential). Zero MeanUptime disables churn.
type ChurnConfig struct {
	MeanUptime   sim.Time
	MeanDowntime sim.Time
}

// Scenario describes one experiment: a node population, an algorithm,
// the protocol parameters and the measurement horizon. It is the one
// configuration type: files, flags and the public API fill it, Validate
// checks it, and Build wires a replication from it.
type Scenario struct {
	Name      string        // label used in reports
	Algorithm p2p.Algorithm // which (re)configuration algorithm the servents run

	NumNodes       int     // ad-hoc nodes (paper: 50 and 150)
	MemberFraction float64 // fraction in the p2p overlay (paper: 0.75)
	AreaSide       float64 // square arena side, metres (paper: 100)
	Range          float64 // radio range, metres (paper: 10)

	Params p2p.Params      // Table 2 protocol constants
	Files  p2p.FileConfig  // Zipf content model
	Quals  QualifierConfig // hybrid qualifier assignment (zero: uniform)

	MaxSpeed float64      // Random Waypoint max speed, m/s (paper: 1.0)
	MaxPause sim.Time     // Random Waypoint max pause (paper: 100 s)
	Mobility MobilityKind // movement model (default: Random Waypoint)

	Duration     sim.Time // simulated time per replication (paper: 3600 s)
	Replications int      // independent runs (paper: 33)
	Seed         int64    // base seed; replication r uses Seed + r

	// Optional extensions (paper §8 future work).
	Churn    ChurnConfig        // death/birth process; zero = disabled
	Energy   radio.EnergyConfig // battery model; zero = infinite
	LossProb float64            // link-layer loss probability

	// Routing substrate (paper: AODV; DSR and flooding enable the
	// routing comparison its companion study [13] performed).
	Routing RoutingKind

	// Overlay-graph sampling for the small-world analysis.
	SnapshotEvery sim.Time // 0 = no snapshots

	// TrafficBucket > 0 collects network-wide message-rate series
	// (Result.ConnectTraffic / QueryTraffic), e.g. 60 s buckets.
	TrafficBucket sim.Time

	// Faults optionally scripts targeted failures — partitions,
	// regional jamming, loss bursts, correlated crashes, link flaps —
	// executed identically (same seed ⇒ same failures) in every
	// replication by an injector with its own RNG stream. Recovery
	// metrics land in Result.Resilience.
	Faults fault.Plan

	// HealthEvery sets the resilience-telemetry sampling period
	// (largest-component fraction, link count, message rates). Zero
	// defaults to 10 s whenever Faults is non-empty; telemetry stays
	// off in fault-free runs unless set explicitly.
	HealthEvery sim.Time

	// Workload optionally replaces the paper's built-in query loop with
	// the scriptable demand engine (internal/workload). Nil (the
	// default) keeps every existing scenario bit-identical; a set plan
	// adds the Result.Workload telemetry block.
	Workload *workload.Plan `json:",omitempty"`

	// Invariants optionally arms the runtime invariant checker in every
	// replication; findings land in Result.Invariants. Nil (the default)
	// disables it entirely — the checker is strictly opt-in and costs
	// nothing when off. Enabling it does not change measured results:
	// the checker only observes and draws no randomness.
	Invariants *invariant.Config `json:",omitempty"`

	// Concurrency: 0 = GOMAXPROCS.
	Workers int
}

// DefaultScenario returns the paper's Table 2 setup for n nodes running
// alg, with the full 3600 s × 33 replications horizon.
func DefaultScenario(n int, alg p2p.Algorithm) Scenario {
	return Scenario{
		Name:           fmt.Sprintf("%s-%d", alg, n),
		Algorithm:      alg,
		NumNodes:       n,
		MemberFraction: 0.75,
		AreaSide:       100,
		Range:          10,
		Params:         p2p.DefaultParams(),
		Files:          p2p.DefaultFileConfig(),
		MaxSpeed:       1.0,
		MaxPause:       100 * sim.Second,
		Duration:       3600 * sim.Second,
		Replications:   33,
		Seed:           1,
		SnapshotEvery:  300 * sim.Second,
	}
}

const maxNodes = 1 << 16 // NumNodes sizes every per-node slice: p2p's maxFiles ceiling, well above 10k nodes

// maxRangesPerSide bounds AreaSide/Range: the radio's spatial index
// holds one cell per Range² of arena.
const maxRangesPerSide = 1000

// maxSamples bounds Duration/period for every sampling period a scenario
// sets (SnapshotEvery, HealthEvery, TrafficBucket, Invariants.Every):
// each sample is a whole-network sweep or a slot in the record, and a
// 1 µs period never finishes.
const maxSamples = 100_000

// Validate reports a descriptive error for inconsistent scenarios. It
// is the only check between a file, a flag or an API caller and Build:
// every rule lives here once (the sub-configurations validate their own
// fields), and radio.Config.Validate remains as the medium's own guard.
func (sc Scenario) Validate() error {
	e := sc.Energy
	switch {
	case !sc.Algorithm.Valid():
		return fmt.Errorf("manetp2p: Algorithm %d is not one of %v", int(sc.Algorithm), p2p.Algorithms())
	case !sc.Routing.valid():
		return fmt.Errorf("manetp2p: Routing %d is not one of %v", int(sc.Routing), Routings())
	case !sc.Mobility.valid():
		return fmt.Errorf("manetp2p: Mobility %d is not one of %v", int(sc.Mobility), Mobilities())
	case sc.NumNodes < 1 || sc.NumNodes > maxNodes:
		return fmt.Errorf("manetp2p: NumNodes %d outside [1, %d]", sc.NumNodes, maxNodes)
	// The float rules are written so that NaN, which a flag can carry,
	// fails them too.
	case !(sc.MemberFraction > 0 && sc.MemberFraction <= 1):
		return fmt.Errorf("manetp2p: MemberFraction %v outside (0,1]", sc.MemberFraction)
	case !(sc.AreaSide > 0):
		return fmt.Errorf("manetp2p: AreaSide %v not positive", sc.AreaSide)
	case !(sc.Range > 0):
		return fmt.Errorf("manetp2p: Range %v not positive", sc.Range)
	case sc.AreaSide/sc.Range > maxRangesPerSide:
		return fmt.Errorf("manetp2p: AreaSide %v is more than %d times Range %v", sc.AreaSide, maxRangesPerSide, sc.Range)
	case !(sc.MaxSpeed > 0 && sc.MaxSpeed <= math.MaxFloat64):
		return fmt.Errorf("manetp2p: MaxSpeed %v not positive and finite", sc.MaxSpeed)
	// The slowest leg across the arena must fit the clock: past it a
	// leg's duration wraps and the node teleports, and a subnormal
	// MaxSpeed leaves the models a zero speed band.
	case sc.AreaSide*math.Sqrt2/sc.slowest() > sim.Horizon.Seconds():
		return fmt.Errorf("manetp2p: at MaxSpeed %v a node may take more than %v to cross AreaSide %v",
			sc.MaxSpeed, sim.Horizon, sc.AreaSide)
	case sc.MaxPause < 0 || sc.MaxPause > sim.MaxTime/2:
		return fmt.Errorf("manetp2p: MaxPause %v negative or overflowing the clock", sc.MaxPause)
	case sc.Duration <= 0:
		return fmt.Errorf("manetp2p: Duration %v not positive", sc.Duration)
	case sc.Replications < 1:
		return fmt.Errorf("manetp2p: Replications %d < 1", sc.Replications)
	case sc.Churn.MeanUptime < 0 || sc.Churn.MeanDowntime < 0:
		return fmt.Errorf("manetp2p: Churn periods %v/%v negative", sc.Churn.MeanUptime, sc.Churn.MeanDowntime)
	case e.Capacity < 0 || e.TxPerFrame < 0 || e.TxPerByte < 0 || e.RxPerFrame < 0 || e.RxPerByte < 0:
		return fmt.Errorf("manetp2p: Energy %+v has a negative field", e)
	case sc.LossProb < 0 || sc.LossProb >= 1:
		return fmt.Errorf("manetp2p: LossProb %v outside [0,1)", sc.LossProb)
	case sc.HealthEvery < 0:
		return fmt.Errorf("manetp2p: HealthEvery %v negative", sc.HealthEvery)
	case sc.Quals.Kind != QualUniform && sc.Quals.Kind != QualClasses:
		return fmt.Errorf("manetp2p: Quals.Kind %d is not a qualifier kind", int(sc.Quals.Kind))
	}
	var checkEvery sim.Time
	if sc.Invariants != nil {
		checkEvery = sc.Invariants.Every
	}
	for _, p := range [...]struct {
		name  string
		every sim.Time
	}{
		{"SnapshotEvery", sc.SnapshotEvery},
		{"HealthEvery", sc.HealthEvery},
		{"TrafficBucket", sc.TrafficBucket},
		{"Invariants.Every", checkEvery},
	} {
		if p.every > 0 && sc.Duration/p.every > maxSamples {
			return fmt.Errorf("manetp2p: %s %v takes more than %d samples over Duration %v", p.name, p.every, maxSamples, sc.Duration)
		}
	}
	for i, c := range sc.Quals.Classes {
		if c.Weight <= 0 {
			return fmt.Errorf("manetp2p: Quals.Classes[%d].Weight %v not positive", i, c.Weight)
		}
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

// HealthPeriod resolves the effective telemetry period: the explicit
// HealthEvery, else 10 s whenever faults are scripted, else off.
func (sc Scenario) HealthPeriod() sim.Time {
	if sc.HealthEvery > 0 {
		return sc.HealthEvery
	}
	if !sc.Faults.Empty() {
		return 10 * sim.Second
	}
	return 0
}

// The knobs of a replication that have one value in use.
const (
	radioLatency = 2 * sim.Millisecond   // fixed per-hop delivery delay
	radioJitter  = sim.Millisecond       // extra uniform [0, jitter] per delivery
	mobilityTick = 500 * sim.Millisecond // position-update period
	minSpeed     = 0.1                   // m/s; the lower edge of every model's speed band
)

// slowest is the lower edge of every model's speed band: minSpeed, or a
// tenth of MaxSpeed when a scenario is slower than that.
func (sc Scenario) slowest() float64 {
	if minSpeed > sc.MaxSpeed {
		return sc.MaxSpeed / 10
	}
	return minSpeed
}

// newModel creates one node's movement model over the speed band
// [slowest, MaxSpeed], which Validate keeps positive, ordered and
// finite.
func (sc Scenario) newModel(arena geom.Rect, start geom.Point, rng *rand.Rand) mobility.Model {
	return mobilities[sc.Mobility].new(arena, start, sc.slowest(), sc.MaxSpeed, sc.MaxPause, rng)
}
