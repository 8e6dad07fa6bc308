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
	membersList []int   // member ids in id order, fixed at Build (see Members)
	down        []uint8 // per node, a bit per cause holding it off the air
	churnRNG    *rand.Rand
	posTicker   *sim.Ticker
	churnEvents uint64 // churn departures that took a node off the air (see ChurnEvents)

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
		down:      make([]uint8, sc.NumNodes),
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
	ledger := p2p.NewQueryLedger(sc.NumNodes)
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
			Ledger:    ledger,
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

	// Battery deaths are permanent (the medium has already let the node go).
	med.OnDeath(func(id int) { n.hold(id, causeDeath, true) })

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
			Ledger:       ledger,
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

// cause is one reason a node is off the air; Network.down holds a bit
// per cause. A node is on the air exactly when no cause holds it down.
type cause uint8

const (
	causeDeath cause = iota // battery exhausted: for good
	causeFault              // a fault crash, until the injector clears it
	causeChurn              // a churn downtime
)

// causeTrace names each cause's set and clear in the event trace,
// indexed by cause.
var causeTrace = [...]struct{ set, clear string }{
	causeDeath: {"battery death", ""},
	causeFault: {"fault down", "fault up"},
	causeChurn: {"churn down", "churn up"},
}

// dead reports whether node i's battery is exhausted.
func (n *Network) dead(i int) bool { return n.down[i]&(1<<causeDeath) != 0 }

// hold sets (on) or clears cause c on node i and traces the change. The
// node leaves the air when its first cause is set and rejoins, at its
// current mobility position, when its last clears; hold reports whether
// it did either. Setting a cause that already holds, or clearing one
// that does not, is a no-op. Nothing clears a battery death.
func (n *Network) hold(i int, c cause, on bool) bool {
	was, bit := n.down[i], uint8(1)<<c
	if (was&bit != 0) == on {
		return false
	}
	what := causeTrace[c].clear
	if on {
		what = causeTrace[c].set
	}
	n.Tracer.Emit(trace.KindNode, i, -1, what)
	n.down[i] ^= bit
	switch {
	case was == 0:
		if sv := n.Servents[i]; sv != nil {
			sv.Leave(false)
		}
		n.Medium.Leave(i)
	case n.down[i] == 0:
		n.Medium.Join(i, n.models[i].Pos(n.Sim.Now()), n.Routers[i].HandleFrame)
		if sv := n.Servents[i]; sv != nil {
			sv.Join()
		}
	default:
		return false
	}
	return true
}

// ForceDown crashes node i (the fault injector's NodeDown): its servent
// leaves the overlay and its radio goes silent until ForceUp, or for
// as long as another cause holds it down.
func (n *Network) ForceDown(i int) { n.hold(i, causeFault, true) }

// ForceUp clears node i's crash; it rejoins unless another cause holds it.
func (n *Network) ForceUp(i int) { n.hold(i, causeFault, false) }

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

// ChurnEvents counts the churn departures that took a node off the air
// — the denominator of the overlay repair-cost-per-churn-event
// telemetry. A departure while a node is crashed costs no repair.
func (n *Network) ChurnEvents() uint64 { return n.churnEvents }

// scheduleChurnDown arms the next departure for member i.
func (n *Network) scheduleChurnDown(i int) {
	up, _ := n.churnMeans(i)
	n.Sim.ScheduleArg(sim.ExpDuration(n.churnRNG, up), churnDown, sim.Arg{I0: i, X: n})
}

// churnDown starts member I0 of network X's downtime. Death ends its
// churn; a crash does not.
func churnDown(a sim.Arg) {
	n, i := a.X.(*Network), a.I0
	if n.dead(i) {
		return
	}
	if n.hold(i, causeChurn, true) {
		n.churnEvents++
	}
	n.scheduleChurnUp(i)
}

// scheduleChurnUp arms the next return for member i.
func (n *Network) scheduleChurnUp(i int) {
	_, down := n.churnMeans(i)
	n.Sim.ScheduleArg(sim.ExpDuration(n.churnRNG, down), churnUp, sim.Arg{I0: i, X: n})
}

// churnUp ends member I0 of network X's downtime. The member was off
// the air throughout, so no battery death fell inside it.
func churnUp(a sim.Arg) {
	n, i := a.X.(*Network), a.I0
	n.hold(i, causeChurn, false)
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
