// Package manet assembles one complete simulated world: a mobile ad-hoc
// network (mobility + radio + AODV) with a peer-to-peer overlay running
// one of the paper's four (re)configuration algorithms on a subset of
// the nodes. One Network is one replication; the paper's experiments run
// 33 of them (see the stats package and the root manetp2p package).
package manet

import (
	"io"
	"math/rand"

	"manetp2p/internal/aodv"
	"manetp2p/internal/fault"
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

// Options holds the knobs of Build that are not part of a scenario. No
// file reaches them: NoQueries and AODV exist for tests and ablation
// benchmarks, and Trace is where p2psim -trace streams its events.
type Options struct {
	NoQueries bool         // servents issue no queries and hold no files
	AODV      *aodv.Config // AODV tuning; nil is aodv.DefaultConfig()
	Trace     io.Writer    // receives the event trace as JSON lines; nil traces nothing
}

// Network is one fully wired replication.
type Network struct {
	Cfg       Scenario // the scenario this replication was built from
	Sim       *sim.Sim
	Medium    *radio.Medium
	Routers   []NodeRouter
	Servents  []*p2p.Servent // nil for nodes outside the overlay
	Collector *telemetry.Collector
	Tracer    *trace.Tracer      // nil unless Options.Trace is set
	Injector  *fault.Injector    // nil unless Cfg.Faults has events
	Checker   *invariant.Checker // nil unless Cfg.Invariants is set and enabled
	Demand    *workload.Engine   // nil unless Cfg.Workload is set

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
}

// Build constructs and wires replication rep of the scenario (seed
// sc.Seed + rep); nodes are placed uniformly at random, members join at
// t=0 (with the servents' own small stagger).
func Build(sc Scenario, rep int, opt Options) (*Network, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	arena := geom.Rect{W: sc.AreaSide, H: sc.AreaSide}
	s := sim.New(sc.Seed + int64(rep))
	med, err := radio.NewMedium(s, radio.Config{
		Arena:    arena,
		Range:    sc.Range,
		NumNodes: sc.NumNodes,
		Latency:  radioLatency,
		Jitter:   radioJitter,
		LossProb: sc.LossProb,
		Energy:   sc.Energy,
	})
	if err != nil {
		return nil, err
	}
	plane := route.NewPlane(s, med)
	n := &Network{
		Cfg:       sc,
		Sim:       s,
		Medium:    med,
		Routers:   make([]NodeRouter, sc.NumNodes),
		Servents:  make([]*p2p.Servent, sc.NumNodes),
		Collector: telemetry.NewCollector(sc.NumNodes),
		models:    make([]mobility.Model, sc.NumNodes),
		member:    make([]bool, sc.NumNodes),
		dead:      make([]bool, sc.NumNodes),
		churnRNG:  s.NewRand(),
	}
	if opt.Trace != nil {
		n.Tracer = trace.New(s, opt.Trace)
	}
	if sc.TrafficBucket > 0 {
		n.Collector.SetClock(s.Now, sc.TrafficBucket)
	}

	// Membership: a random MemberFraction of the nodes join the overlay.
	setupRNG := s.NewRand()
	perm := setupRNG.Perm(sc.NumNodes)
	numMembers := int(float64(sc.NumNodes)*sc.MemberFraction + 0.5)
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
	if !opt.NoQueries {
		held = sc.Files.PlaceFiles(numMembers, setupRNG)
	}

	// Qualifiers.
	quals := assignQualifiers(sc.Quals, sc.NumNodes, setupRNG)

	// Scripted demand. Gated on the plan (like the fault injector) so
	// plan-free runs create no extra RNG stream and stay bit-identical.
	if sc.Workload != nil {
		n.Demand = workload.New(s, s.NewRand(), *sc.Workload, sc.NumNodes, sc.Files.NumFiles, n.Tracer)
	}

	newRouter := routings[sc.Routing].new
	memberIdx := 0
	for i := 0; i < sc.NumNodes; i++ {
		start := arena.RandomPoint(setupRNG)
		n.models[i] = sc.newModel(arena, start, s.NewRand())
		rt := newRouter(i, plane, opt)
		n.Routers[i] = rt
		med.Join(i, start, rt.HandleFrame)
		if !n.member[i] {
			continue
		}
		svOpt := p2p.Options{
			Qualifier: quals[i],
			Collector: n.Collector,
			RNG:       s.NewRand(),
			NoQueries: opt.NoQueries,
			Tracer:    n.Tracer,
		}
		if n.Demand != nil {
			// Guarded: assigning a nil *Engine would make a non-nil
			// interface and disable the built-in model.
			svOpt.Demand = n.Demand
		}
		if held != nil {
			svOpt.Files = held[memberIdx]
		}
		memberIdx++
		sv := p2p.NewServent(i, s, rt, sc.Params, sc.Algorithm, svOpt)
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
	n.posTicker = sim.NewTicker(s, mobilityTick, n.tickPositions)

	// Overlay join + churn processes.
	for i := 0; i < sc.NumNodes; i++ {
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
	if every := sc.HealthPeriod(); every > 0 {
		sim.NewTicker(s, every, n.sampleHealth)
	}
	if !sc.Faults.Empty() {
		n.Injector = fault.New(s, s.NewRand(), sc.Faults, fault.Hooks{
			Pos:           med.Pos,
			Up:            med.Up,
			SetLinkFilter: func(f func(src, dst int) bool) { med.SetLinkFilter(f) },
			NodeDown:      n.ForceDown,
			NodeUp:        n.ForceUp,
			Members:       n.Members,
		})
		n.Injector.Arm()
	}
	if sc.Invariants != nil && sc.Invariants.Enabled {
		n.Checker = invariant.New(*sc.Invariants, invariant.Target{
			Sim:          s,
			Medium:       med,
			Collector:    n.Collector,
			Servents:     n.Servents,
			Algorithm:    sc.Algorithm,
			Params:       sc.Params,
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
	n.Sim.ScheduleArg(sim.ExpDuration(n.churnRNG, up), churnDown, sim.Arg{I0: i, X: n})
}

// churnDown takes member I0 of network X down.
func churnDown(a sim.Arg) {
	n, i := a.X.(*Network), a.I0
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
	n.Sim.ScheduleArg(sim.ExpDuration(n.churnRNG, down), churnUp, sim.Arg{I0: i, X: n})
}

// churnUp brings member I0 of network X back.
func churnUp(a sim.Arg) {
	n, i := a.X.(*Network), a.I0
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
	if !n.Cfg.Algorithm.Symmetric() {
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
			if mutual || !n.Cfg.Algorithm.Symmetric() {
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
