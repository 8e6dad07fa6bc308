// Package manet assembles one complete simulated world: a mobile ad-hoc
// network (mobility + radio + AODV) with a peer-to-peer overlay running
// one of the paper's four (re)configuration algorithms on a subset of
// the nodes. One Network is one replication; the paper's experiments run
// 33 of them (see the stats package and the root manetp2p package).
package manet

import (
	"fmt"
	"math/rand"

	"manetp2p/internal/aodv"
	"manetp2p/internal/dsdv"
	"manetp2p/internal/dsr"
	"manetp2p/internal/fault"
	"manetp2p/internal/flood"
	"manetp2p/internal/geom"
	"manetp2p/internal/graphs"
	"manetp2p/internal/invariant"
	"manetp2p/internal/mobility"
	"manetp2p/internal/netif"
	"manetp2p/internal/p2p"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
	"manetp2p/internal/trace"
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

// String names the routing protocol.
func (k RoutingKind) String() string {
	switch k {
	case RoutingAODV:
		return "AODV"
	case RoutingDSR:
		return "DSR"
	case RoutingFlood:
		return "Flood"
	case RoutingDSDV:
		return "DSDV"
	default:
		return fmt.Sprintf("routing(%d)", int(k))
	}
}

// NodeRouter is a routing instance bound to one node: the overlay-facing
// protocol plus the radio receive hook.
type NodeRouter interface {
	netif.Protocol
	HandleFrame(*radio.Frame)
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

// MobilityConfig parameterizes node movement. The paper's values:
// max speed 1.0 m/s, max pause 100 s.
type MobilityConfig struct {
	Kind     MobilityKind
	MinSpeed float64  // m/s; must be > 0 for moving models
	MaxSpeed float64  // m/s
	MaxPause sim.Time // waypoint only
	Tick     sim.Time // position-update period
}

// DefaultMobility returns the paper's mobility settings.
func DefaultMobility() MobilityConfig {
	return MobilityConfig{
		Kind:     MobilityWaypoint,
		MinSpeed: 0.1,
		MaxSpeed: 1.0,
		MaxPause: 100 * sim.Second,
		Tick:     500 * sim.Millisecond,
	}
}

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

// DefaultQualifiers returns uniform qualifiers.
func DefaultQualifiers() QualifierConfig { return QualifierConfig{Kind: QualUniform} }

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

// Config describes one replication.
type Config struct {
	Seed           int64
	NumNodes       int
	MemberFraction float64 // fraction of nodes in the p2p overlay (0.75)
	Arena          geom.Rect
	Range          float64 // radio range, metres

	Algorithm p2p.Algorithm
	Params    p2p.Params
	Files     p2p.FileConfig
	NoQueries bool

	Mobility   MobilityConfig
	Qualifiers QualifierConfig
	Churn      ChurnConfig

	// Radio details.
	Latency  sim.Time
	Jitter   sim.Time
	LossProb float64
	Energy   radio.EnergyConfig

	// Routing.
	Routing RoutingKind
	AODV    aodv.Config
	DSR     dsr.Config
	Flood   flood.Config
	DSDV    dsdv.Config

	// TraceCapacity > 0 enables structured event tracing with the given
	// buffer size; the tracer is exposed as Network.Tracer.
	TraceCapacity int

	// TrafficBucket > 0 enables time-bucketed message-rate series in the
	// collector (Collector.Series), e.g. 60 s buckets.
	TrafficBucket sim.Time

	// Faults optionally scripts targeted failures (partitions, jamming,
	// loss bursts, correlated crashes, link flaps) executed by an
	// injector wired into the medium and the node lifecycle. The
	// injector draws from its own RNG stream, so same seed + same plan
	// reproduce the same failures.
	Faults fault.Plan

	// Workload optionally replaces the paper's built-in per-servent
	// query loop (uniform 15–45 s gaps, uniform picks) with the
	// scriptable demand engine: pluggable arrival processes, evolving
	// Zipf popularity, session classes composing with Churn, and a
	// phase timeline. Nil keeps runs bit-identical to older builds with
	// the same seed (the engine's RNG stream is gated on the plan, like
	// the fault injector's).
	Workload *workload.Plan

	// HealthEvery > 0 samples overlay health (largest-component
	// fraction, link count, cumulative per-class message totals) into
	// the Collector at this period — the resilience telemetry the
	// recovery metrics are derived from.
	HealthEvery sim.Time

	// Invariants optionally arms the runtime invariant checker
	// (internal/invariant). Off by default: a disabled checker wires no
	// events and costs nothing. The checker only observes, so enabling
	// it does not change the replication's results.
	Invariants invariant.Config
}

// DefaultConfig returns the paper's Table 2 scenario with n nodes.
func DefaultConfig(n int, alg p2p.Algorithm) Config {
	return Config{
		Seed:           1,
		NumNodes:       n,
		MemberFraction: 0.75,
		Arena:          geom.Rect{W: 100, H: 100},
		Range:          10,
		Algorithm:      alg,
		Params:         p2p.DefaultParams(),
		Files:          p2p.DefaultFileConfig(),
		Mobility:       DefaultMobility(),
		Qualifiers:     DefaultQualifiers(),
		Latency:        2 * sim.Millisecond,
		Jitter:         sim.Millisecond,
	}
}

// Validate reports a descriptive error for inconsistent configuration.
func (c Config) Validate() error {
	switch {
	case c.NumNodes < 1:
		return fmt.Errorf("manet: NumNodes %d < 1", c.NumNodes)
	case c.MemberFraction <= 0 || c.MemberFraction > 1:
		return fmt.Errorf("manet: MemberFraction %v outside (0,1]", c.MemberFraction)
	case c.Arena.W <= 0 || c.Arena.H <= 0:
		return fmt.Errorf("manet: empty arena")
	case c.Range <= 0:
		return fmt.Errorf("manet: Range %v not positive", c.Range)
	case c.Mobility.Tick <= 0:
		return fmt.Errorf("manet: mobility tick %v not positive", c.Mobility.Tick)
	case c.Churn.MeanUptime < 0 || c.Churn.MeanDowntime < 0:
		return fmt.Errorf("manet: negative churn periods")
	case c.HealthEvery < 0:
		return fmt.Errorf("manet: HealthEvery %v negative", c.HealthEvery)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("manet: fault plan: %w", err)
	}
	if c.Workload != nil {
		if err := c.Workload.Validate(); err != nil {
			return fmt.Errorf("manet: workload plan: %w", err)
		}
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.Invariants.Validate(); err != nil {
		return err
	}
	return c.Files.Validate()
}

// Network is one fully wired replication.
type Network struct {
	Cfg       Config
	Sim       *sim.Sim
	Medium    *radio.Medium
	Routers   []NodeRouter
	Servents  []*p2p.Servent // nil for nodes outside the overlay
	Collector *telemetry.Collector
	Tracer    *trace.Tracer      // nil unless Config.TraceCapacity > 0
	Injector  *fault.Injector    // nil unless Config.Faults has events
	Checker   *invariant.Checker // nil unless Config.Invariants.Enabled
	Demand    *workload.Engine   // nil unless Config.Workload is set

	models      []mobility.Model
	member      []bool
	membersList []int  // member ids in id order, fixed at Build (see Members)
	dead        []bool // battery-exhausted, never comes back
	churnRNG    *rand.Rand
	posTicker   *sim.Ticker
	churnEvents uint64 // churn departures executed (overlay repair-cost basis)

	// Overlay-snapshot scratch: the health sampler's analytics engine,
	// the peer-id buffer AppendOverlayAdjacency fills rows from, and the
	// member predicate bound once so per-tick sampling allocates nothing.
	analyzer graphs.Analyzer
	peerBuf  []int
	peerOff  []int32
	memberFn func(int) bool

	// Churn callbacks bound once so re-arming allocates nothing.
	churnDownFn func(sim.Arg)
	churnUpFn   func(sim.Arg)
}

// Build constructs and wires a Network; nodes are placed uniformly at
// random, members join at t=0 (with the servents' own small stagger).
func Build(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := sim.New(cfg.Seed)
	med, err := radio.NewMedium(s, radio.Config{
		Arena:    cfg.Arena,
		Range:    cfg.Range,
		NumNodes: cfg.NumNodes,
		Latency:  cfg.Latency,
		Jitter:   cfg.Jitter,
		LossProb: cfg.LossProb,
		Energy:   cfg.Energy,
	})
	if err != nil {
		return nil, err
	}
	plane := route.NewPlane(s, cfg.NumNodes)
	n := &Network{
		Cfg:       cfg,
		Sim:       s,
		Medium:    med,
		Routers:   make([]NodeRouter, cfg.NumNodes),
		Servents:  make([]*p2p.Servent, cfg.NumNodes),
		Collector: telemetry.NewCollector(cfg.NumNodes),
		models:    make([]mobility.Model, cfg.NumNodes),
		member:    make([]bool, cfg.NumNodes),
		dead:      make([]bool, cfg.NumNodes),
		churnRNG:  s.NewRand(),
	}
	n.churnDownFn = n.churnDown
	n.churnUpFn = n.churnUp
	if cfg.TraceCapacity > 0 {
		n.Tracer = trace.New(s, cfg.TraceCapacity)
	}
	if cfg.TrafficBucket > 0 {
		n.Collector.SetClock(s.Now, cfg.TrafficBucket)
	}

	// Membership: a random MemberFraction of the nodes join the overlay.
	setupRNG := s.NewRand()
	perm := setupRNG.Perm(cfg.NumNodes)
	numMembers := int(float64(cfg.NumNodes)*cfg.MemberFraction + 0.5)
	if numMembers < 1 {
		numMembers = 1
	}
	for _, i := range perm[:numMembers] {
		n.member[i] = true
	}
	n.membersList = make([]int, 0, numMembers)
	for i, m := range n.member {
		if m {
			n.membersList = append(n.membersList, i)
		}
	}
	n.memberFn = n.IsMember

	// File placement over members only (ranks map member order).
	var held [][]bool
	if !cfg.NoQueries {
		held = cfg.Files.PlaceFiles(numMembers, setupRNG)
	}

	// Qualifiers.
	quals := assignQualifiers(cfg.Qualifiers, cfg.NumNodes, setupRNG)

	// Scripted demand. Gated on the plan (like the fault injector) so
	// plan-free runs create no extra RNG stream and stay bit-identical.
	if cfg.Workload != nil {
		n.Demand = workload.New(s, s.NewRand(), *cfg.Workload, cfg.NumNodes, cfg.Files.NumFiles, n.Tracer)
	}

	memberIdx := 0
	for i := 0; i < cfg.NumNodes; i++ {
		start := cfg.Arena.RandomPoint(setupRNG)
		n.models[i] = newModel(cfg.Mobility, cfg.Arena, start, s.NewRand())
		var rt NodeRouter
		switch cfg.Routing {
		case RoutingDSR:
			rt = dsr.NewRouter(i, plane, med, cfg.DSR)
		case RoutingFlood:
			rt = flood.NewRouter(i, plane, med, cfg.Flood)
		case RoutingDSDV:
			rt = dsdv.NewRouter(i, plane, med, cfg.DSDV)
		default:
			rt = aodv.NewRouter(i, plane, med, cfg.AODV)
		}
		n.Routers[i] = rt
		med.Join(i, start, rt.HandleFrame)
		if !n.member[i] {
			continue
		}
		opt := p2p.Options{
			Qualifier: quals[i],
			Collector: n.Collector,
			RNG:       s.NewRand(),
			NoQueries: cfg.NoQueries,
			Tracer:    n.Tracer,
		}
		if n.Demand != nil {
			// Guarded: assigning a nil *Engine would make a non-nil
			// interface and disable the built-in model.
			opt.Demand = n.Demand
		}
		if held != nil {
			opt.Files = held[memberIdx]
		}
		memberIdx++
		sv := p2p.NewServent(i, s, rt, cfg.Params, cfg.Algorithm, opt)
		rt.OnUnicast(sv.HandleUnicast)
		rt.OnBroadcast(sv.HandleBroadcast)
		n.Servents[i] = sv
	}

	// Battery deaths are permanent.
	med.OnDeath(func(id int) {
		n.dead[id] = true
		n.Tracer.Emit(trace.KindNode, id, -1, "battery death")
		if sv := n.Servents[id]; sv != nil {
			sv.Leave(false)
		}
	})

	// Mobility tick.
	n.posTicker = sim.NewTicker(s, cfg.Mobility.Tick, n.tickPositions)

	// Overlay join + churn processes.
	for i := 0; i < cfg.NumNodes; i++ {
		if sv := n.Servents[i]; sv != nil {
			sv.Join()
			if n.churnEnabled(i) {
				n.scheduleChurnDown(i)
			}
		}
	}

	// Resilience telemetry and scripted fault injection. Both are
	// gated so fault-free runs allocate no extra RNG streams and stay
	// bit-identical to earlier builds with the same seed.
	if cfg.HealthEvery > 0 {
		sim.NewTicker(s, cfg.HealthEvery, n.sampleHealth)
	}
	if !cfg.Faults.Empty() {
		n.Injector = fault.New(s, s.NewRand(), cfg.Faults, fault.Hooks{
			Pos:           med.Pos,
			Up:            med.Up,
			SetLinkFilter: func(f func(src, dst int) bool) { med.SetLinkFilter(f) },
			NodeDown:      n.ForceDown,
			NodeUp:        n.ForceUp,
			Members:       n.Members,
		})
		n.Injector.Arm()
	}
	if cfg.Invariants.Enabled {
		n.Checker = invariant.New(cfg.Invariants, invariant.Target{
			Sim:          s,
			Medium:       med,
			Collector:    n.Collector,
			Servents:     n.Servents,
			Algorithm:    cfg.Algorithm,
			Params:       cfg.Params,
			Plane:        plane,
			RoutingStats: func(i int) netif.Stats { return n.Routers[i].Stats() },
			Demand:       n.Demand,
			Adjacency:    n.AppendOverlayAdjacency,
		})
		n.Checker.Attach()
	}
	return n, nil
}

// RoutingStats snapshots every node's routing-effort counters — the
// unified netif.Stats contract all four substrates implement.
func (n *Network) RoutingStats() []netif.Stats {
	out := make([]netif.Stats, len(n.Routers))
	for i, rt := range n.Routers {
		out[i] = rt.Stats()
	}
	return out
}

// ForceDown crashes node i: its servent leaves the overlay and its
// radio goes silent. Used by the fault injector — distinct from churn,
// which draws its own schedule. Dead or already-down nodes are no-ops.
func (n *Network) ForceDown(i int) {
	if n.dead[i] || !n.Medium.Up(i) {
		return
	}
	n.Tracer.Emit(trace.KindNode, i, -1, "fault down")
	if sv := n.Servents[i]; sv != nil {
		sv.Leave(false)
	}
	n.Medium.Leave(i)
}

// ForceUp restarts a crashed node at its current mobility position.
// Battery-dead or already-up nodes are no-ops.
func (n *Network) ForceUp(i int) {
	if n.dead[i] || n.Medium.Up(i) {
		return
	}
	n.Tracer.Emit(trace.KindNode, i, -1, "fault up")
	n.Medium.Join(i, n.models[i].Pos(n.Sim.Now()), n.Routers[i].HandleFrame)
	if sv := n.Servents[i]; sv != nil {
		sv.Join()
	}
}

// sampleHealth records one resilience telemetry point: overlay
// connectivity plus the cumulative message totals. It serves both the
// HealthEvery telemetry and the fault plans' recovery metrics, and runs
// every few seconds — so it goes through the allocation-free Analyzer
// rather than rebuilding a graphs.Graph per sample.
func (n *Network) sampleHealth() {
	n.AppendOverlayAdjacency(&n.analyzer.S)
	m := n.analyzer.Analyze(n.memberFn)
	h := telemetry.HealthSample{
		At:          n.Sim.Now(),
		LargestComp: m.Largest,
		Links:       m.Edges,
	}
	for c := 0; c < telemetry.NumClasses; c++ {
		h.Received[c] = n.Collector.TotalReceived(telemetry.Class(c))
	}
	n.Collector.RecordHealth(h)
}

func newModel(cfg MobilityConfig, arena geom.Rect, start geom.Point, rng *rand.Rand) mobility.Model {
	switch cfg.Kind {
	case MobilityStationary:
		return mobility.Stationary{P: start}
	case MobilityWalk:
		return mobility.NewWalk(arena, start, cfg.MinSpeed, cfg.MaxSpeed, 20*sim.Second, rng)
	case MobilityDirection:
		return mobility.NewDirection(arena, start, cfg.MinSpeed, cfg.MaxSpeed, cfg.MaxPause, rng)
	case MobilityGaussMarkov:
		return mobility.NewGaussMarkov(arena, start, (cfg.MinSpeed+cfg.MaxSpeed)/2, 0.75, sim.Second, rng)
	default:
		return mobility.NewWaypoint(arena, start, cfg.MinSpeed, cfg.MaxSpeed, cfg.MaxPause, rng)
	}
}

func assignQualifiers(cfg QualifierConfig, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	switch cfg.Kind {
	case QualClasses:
		total := 0.0
		for _, c := range cfg.Classes {
			total += c.Weight
		}
		for i := range out {
			r := rng.Float64() * total
			for _, c := range cfg.Classes {
				if r < c.Weight {
					out[i] = c.Value
					break
				}
				r -= c.Weight
			}
		}
	default:
		for i := range out {
			out[i] = rng.Float64()
		}
	}
	return out
}

// tickPositions advances every live node's position.
func (n *Network) tickPositions() {
	now := n.Sim.Now()
	for i, m := range n.models {
		if n.Medium.Up(i) {
			n.Medium.SetPos(i, m.Pos(now))
		}
	}
}

// churnEnabled reports whether member i alternates up/down periods:
// either the scenario configures global churn, or the node's workload
// session class carries its own absolute churn means.
func (n *Network) churnEnabled(i int) bool {
	if n.Cfg.Churn.MeanUptime > 0 {
		return true
	}
	return n.Demand != nil && n.Demand.SessionChurn(i)
}

// churnMeans composes the scenario's churn means with member i's
// workload session class (absolute class means win; otherwise the class
// scales the base).
func (n *Network) churnMeans(i int) (up, down sim.Time) {
	up, down = n.Cfg.Churn.MeanUptime, n.Cfg.Churn.MeanDowntime
	if n.Demand != nil {
		up, down = n.Demand.ChurnMeans(i, up, down)
	}
	return up, down
}

// ChurnEvents counts churn departures executed so far — the
// denominator of the overlay repair-cost-per-churn-event telemetry.
func (n *Network) ChurnEvents() uint64 { return n.churnEvents }

// scheduleChurnDown arms the next departure for member i.
func (n *Network) scheduleChurnDown(i int) {
	up, _ := n.churnMeans(i)
	n.Sim.ScheduleArg(expDuration(n.churnRNG, up), n.churnDownFn, sim.Arg{I0: i})
}

func (n *Network) churnDown(a sim.Arg) {
	i := a.I0
	if n.dead[i] || !n.Medium.Up(i) {
		return
	}
	n.churnEvents++
	n.Tracer.Emit(trace.KindNode, i, -1, "churn down")
	if sv := n.Servents[i]; sv != nil {
		sv.Leave(false)
	}
	n.Medium.Leave(i)
	n.scheduleChurnUp(i)
}

// scheduleChurnUp arms the next return for member i.
func (n *Network) scheduleChurnUp(i int) {
	_, down := n.churnMeans(i)
	n.Sim.ScheduleArg(expDuration(n.churnRNG, down), n.churnUpFn, sim.Arg{I0: i})
}

func (n *Network) churnUp(a sim.Arg) {
	i := a.I0
	if n.dead[i] || n.Medium.Up(i) {
		return
	}
	n.Tracer.Emit(trace.KindNode, i, -1, "churn up")
	n.Medium.Join(i, n.models[i].Pos(n.Sim.Now()), n.Routers[i].HandleFrame)
	if sv := n.Servents[i]; sv != nil {
		sv.Join()
	}
	n.scheduleChurnDown(i)
}

// expDuration draws an exponential duration with the given mean,
// clamped to at least one second so churn cannot livelock the sim.
func expDuration(rng *rand.Rand, mean sim.Time) sim.Time {
	d := sim.FromSeconds(rng.ExpFloat64() * mean.Seconds())
	if d < sim.Second {
		d = sim.Second
	}
	return d
}

// Run advances the replication by d simulated time.
func (n *Network) Run(d sim.Time) {
	n.Sim.Run(n.Sim.Now() + d)
}

// Members returns the ids of overlay members, in id order. Membership
// is fixed at Build, so the slice is computed once and shared — callers
// must not mutate it (the snapshot ticker reads it every tick).
func (n *Network) Members() []int { return n.membersList }

// IsMember reports whether node i belongs to the overlay.
func (n *Network) IsMember(i int) bool { return n.member[i] }

// AppendOverlayAdjacency fills sc with the current overlay graph
// restricted to members: the allocation-free counterpart of
// OverlayAdjacency, feeding a graphs.Analyzer. The symmetric-link check
// runs against a link bitmap marked in one pass over all servents
// instead of scanning each peer's neighbor list per link (the O(deg²)
// cost of the naive path). Rows match graphs.New(n.OverlayAdjacency())
// exactly: sorted, deduplicated, self-free, mutual links only (Basic
// keeps its by-design asymmetric references).
func (n *Network) AppendOverlayAdjacency(sc *graphs.Scratch) {
	sc.Reset(n.Cfg.NumNodes)
	if n.Cfg.Algorithm == p2p.Basic {
		// Basic references are one-directional by design, so every live
		// connection is a row entry — one pass.
		for i, sv := range n.Servents {
			if sv == nil || !sv.Joined() {
				sc.EndRow()
				continue
			}
			n.peerBuf = sv.AppendPeers(n.peerBuf[:0])
			for _, p := range n.peerBuf {
				if p != i && n.joined(p) {
					sc.AppendNeighbor(p)
				}
			}
			sc.EndRow()
		}
		return
	}
	// Symmetric algorithms admit mutual links only: mark every raw
	// directed link in the scratch bitmap, then build rows with an O(1)
	// reverse-direction check. The first pass buffers each node's peer
	// ids so the second never re-iterates the servents' connection maps.
	n.peerBuf = n.peerBuf[:0]
	n.peerOff = append(n.peerOff[:0], 0)
	for i, sv := range n.Servents {
		if sv != nil && sv.Joined() {
			n.peerBuf = sv.AppendPeers(n.peerBuf)
			for _, p := range n.peerBuf[n.peerOff[i]:] {
				sc.MarkLink(i, p)
			}
		}
		n.peerOff = append(n.peerOff, int32(len(n.peerBuf)))
	}
	for i, sv := range n.Servents {
		if sv == nil || !sv.Joined() {
			sc.EndRow()
			continue
		}
		for _, p := range n.peerBuf[n.peerOff[i]:n.peerOff[i+1]] {
			if p != i && n.joined(p) && sc.HasLink(p, i) {
				sc.AppendNeighbor(p)
			}
		}
		sc.EndRow()
	}
}

// joined reports whether node id currently runs a joined servent.
func (n *Network) joined(id int) bool {
	sv := n.Servents[id]
	return sv != nil && sv.Joined()
}

// OverlayAdjacency returns the current overlay graph restricted to
// members, as adjacency lists keyed by node id (entries for non-members
// are nil). Only links acknowledged by both endpoints are included.
// This is the reference implementation; hot paths use
// AppendOverlayAdjacency with a reusable graphs.Scratch instead.
func (n *Network) OverlayAdjacency() [][]int {
	adj := make([][]int, n.Cfg.NumNodes)
	for i, sv := range n.Servents {
		if sv == nil || !sv.Joined() {
			continue
		}
		for _, p := range sv.Peers() {
			other := n.Servents[p]
			if other == nil || !other.Joined() {
				continue
			}
			mutual := false
			for _, q := range other.Peers() {
				if q == i {
					mutual = true
					break
				}
			}
			if mutual || n.Cfg.Algorithm == p2p.Basic {
				adj[i] = append(adj[i], p)
			}
		}
	}
	return adj
}

// AliveMembers counts members currently joined.
func (n *Network) AliveMembers() int {
	c := 0
	for _, sv := range n.Servents {
		if sv != nil && sv.Joined() {
			c++
		}
	}
	return c
}
