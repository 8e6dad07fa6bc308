// Package invariant implements the opt-in runtime invariant checker: a
// structural validator that sweeps a live replication at configurable
// simulated-time intervals and at teardown, checking cross-layer
// invariants the paper's metrics silently depend on — sim-kernel
// integrity (event-time monotonicity, pooled-slot hygiene, an empty
// queue at the horizon), radio/metrics conservation (every queued
// delivery is received, lost to a down receiver, or still in flight),
// routing-layer counter conservation (frame reactions bounded by frames
// on the air, failure counters bounded by their attempt counters), and
// the per-algorithm protocol invariants of §6 (connection symmetry,
// MAXNCONN/MAXNSLAVES caps, hybrid role consistency, handshake-state
// legality).
//
// The checker is zero-cost when off: nothing in this package is touched
// by the simulation hot path, and a disabled Config wires no events and
// allocates nothing. When on, it observes through read-only snapshots
// (p2p.Servent.Inspect, radio.Medium.InFlightTo, sim.Sim.Audit,
// radio.Medium.Audit, route.Plane.Audit) and draws no random numbers,
// so an instrumented run produces the same Result as an uninstrumented
// one.
package invariant

import (
	"fmt"

	"manetp2p/internal/graphs"
	"manetp2p/internal/netif"
	"manetp2p/internal/p2p"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
	"manetp2p/internal/workload"
)

// Config enables and tunes the checker. The zero value is "off".
type Config struct {
	Enabled bool
	// Every is the sampling period; 0 defaults to 30 s. Teardown checks
	// run regardless via Finalize.
	Every sim.Time
	// Grace is how long a cross-node inconsistency (an asymmetric link,
	// a slave pointing at a demoted master) may persist before it is a
	// violation rather than an in-flight close or handshake. 0 derives
	// the bound from the protocol parameters: the responder keepalive
	// window — the longest a correct implementation can take to notice a
	// silent unilateral close — plus one sampling period of slack.
	Grace sim.Time
	// MaxViolations caps recorded violations per replication (the total
	// count keeps climbing past it); 0 defaults to 64.
	MaxViolations int
}

// Validate reports a descriptive error for inconsistent configuration.
func (c Config) Validate() error {
	switch {
	case c.Every < 0:
		return fmt.Errorf("invariant: Every %v negative", c.Every)
	case c.Grace < 0:
		return fmt.Errorf("invariant: Grace %v negative", c.Grace)
	case c.MaxViolations < 0:
		return fmt.Errorf("invariant: MaxViolations %d negative", c.MaxViolations)
	}
	return nil
}

// Violation is one detected invariant breach, stamped with the simulated
// time and the node(s) involved so a report pinpoints the corruption.
type Violation struct {
	At     sim.Time
	Layer  string // "sim", "radio", "metrics", "route", "p2p", "overlay" or "workload"
	Rule   string
	Node   int // -1 when not node-specific
	Peer   int // -1 when not pairwise
	Detail string
}

// String renders the violation for reports.
func (v Violation) String() string {
	who := ""
	switch {
	case v.Node >= 0 && v.Peer >= 0:
		who = fmt.Sprintf(" node=%d peer=%d", v.Node, v.Peer)
	case v.Node >= 0:
		who = fmt.Sprintf(" node=%d", v.Node)
	}
	return fmt.Sprintf("t=%v %s/%s%s: %s", v.At, v.Layer, v.Rule, who, v.Detail)
}

// Target is the replication under validation: the assembled layers the
// checker observes. Servents may hold nils for nodes outside the overlay.
type Target struct {
	Sim       *sim.Sim
	Medium    *radio.Medium
	Collector *telemetry.Collector
	Servents  []*p2p.Servent
	Algorithm p2p.Algorithm
	Params    p2p.Params
	// Plane is the routers' shared state; nil disarms the
	// duplicate-index rules (route.Plane.Audit).
	Plane *route.Plane
	// Ledger is the servents' query ledger; nil disarms its table-reach
	// rule, which only Finalize checks: the ledger only grows.
	Ledger *p2p.QueryLedger
	// RoutingStats returns node i's routing-effort counters
	// (netif.Stats); nil disarms the route-layer rules.
	RoutingStats func(i int) netif.Stats
	// Demand is the scripted workload engine; nil disarms the
	// demand-conservation rules.
	Demand *workload.Engine
	// Adjacency fills the member-restricted overlay adjacency into the
	// scratch (manet.Network.AppendOverlayAdjacency); nil disarms the
	// overlay connectivity rules (connectivity.go).
	Adjacency func(*graphs.Scratch)
}

// pairKey identifies one tracked cross-node observation.
type pairKey struct {
	rule string
	a, b int
}

// pairState tracks when a cross-node inconsistency was first seen and
// whether it has already been reported (each offence reports once).
type pairState struct {
	first    sim.Time
	reported bool
	seenPass uint64
}

// Checker validates one replication. Not safe for concurrent use: one
// Checker per Sim, like every other component.
type Checker struct {
	cfg Config
	t   Target

	ticker     *sim.Ticker
	lastNow    sim.Time
	passes     uint64
	views      []p2p.View // one reusable snapshot per node
	an         graphs.Analyzer
	memberFn   func(int) bool
	inflight   []uint64
	lastRecv   [telemetry.NumClasses]uint64
	lastHealth int
	lastFrames uint64
	lastBounds uint64
	pairs      map[pairKey]pairState

	// The layer audits' report callbacks, bound once so a pass builds none.
	reportSim, reportRadio, reportRoute func(rule, detail string)

	// node is the servent whose rules the algorithm is running;
	// reportNode and observeNode attribute its findings to it, the
	// latter to its connection installed at since.
	node                    int
	since                   sim.Time
	reportNode, observeNode func(rule string, peer int, format string, args ...any)

	violations []Violation
	total      int
}

// New builds a checker for the target. Call Attach to arm the periodic
// sweep, or Check/Finalize directly.
func New(cfg Config, t Target) *Checker {
	if cfg.Every <= 0 {
		cfg.Every = 30 * sim.Second
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 64
	}
	if cfg.Grace <= 0 {
		// The responder-side keepalive window is the longest a correct
		// node may hold its half of a silently-closed connection.
		cfg.Grace = 2*(t.Params.PingInterval+t.Params.PongTimeout) + cfg.Every
	}
	c := &Checker{
		cfg:      cfg,
		t:        t,
		views:    make([]p2p.View, len(t.Servents)),
		inflight: make([]uint64, t.Medium.NumNodes()),
		pairs:    make(map[pairKey]pairState),
	}
	c.reportSim = func(rule, detail string) { c.report("sim", rule, -1, -1, "%s", detail) }
	c.reportRadio = func(rule, detail string) { c.report("radio", rule, -1, -1, "%s", detail) }
	c.reportRoute = func(rule, detail string) { c.report("route", rule, -1, -1, "%s", detail) }
	c.reportNode = func(rule string, peer int, format string, args ...any) {
		c.report("p2p", rule, c.node, peer, format, args...)
	}
	c.observeNode = func(rule string, peer int, format string, args ...any) {
		c.observePair(rule, c.node, peer, c.since, format, args...)
	}
	return c
}

// Attach arms the periodic sweep on the target's simulator.
func (c *Checker) Attach() {
	if c.ticker != nil {
		return
	}
	c.ticker = sim.NewTicker(c.t.Sim, c.cfg.Every, c.runPass)
}

func (c *Checker) runPass() { c.Check() }

// Violations returns the recorded violations in detection order.
func (c *Checker) Violations() []Violation { return c.violations }

// Total reports how many violations were detected, including any past
// the recording cap.
func (c *Checker) Total() int { return c.total }

// OK reports whether no invariant has been violated so far.
func (c *Checker) OK() bool { return c.total == 0 }

// report records one violation, honoring the cap.
func (c *Checker) report(layer, rule string, node, peer int, format string, args ...any) {
	c.total++
	if len(c.violations) >= c.cfg.MaxViolations {
		return
	}
	c.violations = append(c.violations, Violation{
		At:     c.t.Sim.Now(),
		Layer:  layer,
		Rule:   rule,
		Node:   node,
		Peer:   peer,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Check runs one full sweep at the current simulated time.
func (c *Checker) Check() {
	now := c.t.Sim.Now()
	if now < c.lastNow {
		c.report("sim", "time-monotonic", -1, -1,
			"clock moved backwards: %v after %v", now, c.lastNow)
	}
	c.lastNow = now
	c.passes++

	c.t.Sim.Audit(c.reportSim)
	c.t.Medium.Audit(c.reportRadio)
	if c.t.Plane != nil {
		c.t.Plane.Audit(c.reportRoute)
	}
	c.checkRadioConservation()
	c.checkMetrics()
	c.checkRouting()
	c.checkOverlay()
	c.checkConnectivity()
	c.checkWorkload()
	c.sweepPairs()
}

// checkWorkload audits the demand engine's conservation ledger: every
// offered demand is resolved, expired, aborted or still pending; every
// issued query is resolved, expired, aborted or still in flight; the
// in-flight count matches the number of servents holding an open query
// window; queries cannot outnumber demand arrivals; and every drawn
// inter-query gap honored its configured process bounds.
func (c *Checker) checkWorkload() {
	if c.t.Demand == nil {
		return
	}
	ct := c.t.Demand.Counters()
	settled := ct.Resolved + ct.Expired + ct.Aborted
	if ct.Offered != settled+ct.Pending {
		c.report("workload", "offered-conservation", -1, -1,
			"offered %d != resolved %d + expired %d + aborted %d + pending %d",
			ct.Offered, ct.Resolved, ct.Expired, ct.Aborted, ct.Pending)
	}
	if ct.Issued != settled+ct.InFlight {
		c.report("workload", "issued-conservation", -1, -1,
			"issued %d != resolved %d + expired %d + aborted %d + in-flight %d",
			ct.Issued, ct.Resolved, ct.Expired, ct.Aborted, ct.InFlight)
	}
	if ct.Issued > ct.Offered+ct.Retries {
		c.report("workload", "issued-bound", -1, -1,
			"issued %d exceeds demand arrivals %d (offered %d + retries %d)",
			ct.Issued, ct.Offered+ct.Retries, ct.Offered, ct.Retries)
	}
	var open uint64
	for _, sv := range c.t.Servents {
		if sv != nil && sv.OpenQuery() {
			open++
		}
	}
	if ct.InFlight != open {
		c.report("workload", "inflight-open-queries", -1, -1,
			"engine in-flight %d != servents with open query windows %d", ct.InFlight, open)
	}
	if b := ct.BoundsViol; b > c.lastBounds {
		c.report("workload", "arrival-bounds", -1, -1,
			"%d gap draws escaped the configured process bounds (%d new)", b, b-c.lastBounds)
		c.lastBounds = b
	}
}

// checkRouting validates the routing layer's netif.Stats counter block:
// per-node sanity bounds plus network-wide control-frame conservation.
// Every duplicate-cache hit, control relay, broadcast relay and data
// forward is triggered by receiving a frame, and any transmitted frame
// is received by at most n-1 nodes — so the reaction counters can never
// exceed (n-1) times the frames put on the air. Frames() may overcount
// transmissions (DataSent includes attempts abandoned before the radio),
// never undercount, keeping the bound sound.
func (c *Checker) checkRouting() {
	if c.t.RoutingStats == nil {
		return
	}
	n := c.t.Medium.NumNodes()
	var total netif.Stats
	for i := 0; i < n; i++ {
		st := c.t.RoutingStats(i)
		if st.SendFailed > st.DataSent {
			c.report("route", "sendfail-bound", i, -1,
				"SendFailed %d exceeds DataSent %d", st.SendFailed, st.DataSent)
		}
		if st.DiscoverFailed > st.Discoveries {
			c.report("route", "discovery-bound", i, -1,
				"DiscoverFailed %d exceeds Discoveries %d", st.DiscoverFailed, st.Discoveries)
		}
		total.Add(st)
	}
	if n > 1 {
		reactions := total.DupHits + total.CtrlRelayed + total.BcastRelayed + total.DataForwarded
		if bound := uint64(n-1) * total.Frames(); reactions > bound {
			c.report("route", "ctrl-conservation", -1, -1,
				"frame reactions %d exceed (n-1)*frames %d (dup %d ctrl-relay %d bcast-relay %d fwd %d, frames %d)",
				reactions, bound, total.DupHits, total.CtrlRelayed,
				total.BcastRelayed, total.DataForwarded, total.Frames())
		}
	}
	if f := total.Frames(); f < c.lastFrames {
		c.report("route", "frames-monotonic", -1, -1,
			"network frame total %d below earlier %d", f, c.lastFrames)
	} else {
		c.lastFrames = f
	}
}

// Finalize runs the teardown checks after the replication's horizon: one
// last full sweep, the kernel's empty-queue-at-horizon rule — Run must
// have fired every event stamped at or before the clock — and the query
// ledger's table-reach rule (marks.Index.Audit).
func (c *Checker) Finalize() {
	c.Check()
	if c.t.Sim.Due() {
		c.report("sim", "queue-at-horizon", -1, -1,
			"live event or radio reception still queued at or before horizon %v", c.t.Sim.Now())
	}
	if c.t.Ledger != nil {
		c.t.Ledger.Audit(func(rule, detail string) { c.report("p2p", rule, -1, -1, "query ledger: %s", detail) })
	}
}

// checkRadioConservation closes the per-node frame conservation law:
// every delivery queued toward a node was received, lost to the node
// being down, or is still in flight.
func (c *Checker) checkRadioConservation() {
	c.inflight = c.t.Medium.InFlightTo(c.inflight)
	for i := 0; i < c.t.Medium.NumNodes(); i++ {
		st := c.t.Medium.Stats(i)
		if st.Queued != st.RxFrames+st.LostDown+c.inflight[i] {
			c.report("radio", "conservation", i, -1,
				"queued %d != received %d + lost-down %d + in-flight %d",
				st.Queued, st.RxFrames, st.LostDown, c.inflight[i])
		}
	}
}

// checkMetrics validates the collector: cumulative per-class receive
// totals never decrease, and when time-bucketed series are on, the
// buckets sum to the cumulative total — no message is counted into a
// bucket without the total seeing it, and vice versa.
func (c *Checker) checkMetrics() {
	for class := 0; class < telemetry.NumClasses; class++ {
		total := c.t.Collector.TotalReceived(telemetry.Class(class))
		if total < c.lastRecv[class] {
			c.report("metrics", "monotonic", -1, -1,
				"class %v total %d below earlier %d", telemetry.Class(class), total, c.lastRecv[class])
		}
		c.lastRecv[class] = total
		if series := c.t.Collector.Series(telemetry.Class(class)); series != nil {
			var sum uint64
			for _, b := range series {
				sum += b
			}
			if sum != total {
				c.report("metrics", "bucket-conservation", -1, -1,
					"class %v buckets sum to %d, cumulative total %d", telemetry.Class(class), sum, total)
			}
		}
	}
	c.checkHealthSamples()
}

// checkHealthSamples validates the health time series the resilience
// section streams: sample times strictly increase, and the cumulative
// per-class receive snapshots embedded in consecutive samples never
// decrease — a health sample is a point-in-time view of monotone
// counters, so any regression means the series was corrupted or
// recorded out of order. Only samples appended since the previous pass
// are examined.
func (c *Checker) checkHealthSamples() {
	var prev *telemetry.HealthSample // sample 0 has no predecessor
	c.t.Collector.EachHealth(max(c.lastHealth-1, 0), func(i int, cur *telemetry.HealthSample) {
		if prev != nil {
			if cur.At <= prev.At {
				c.report("metrics", "health-monotonic", -1, -1,
					"health sample %d at %v not after sample %d at %v", i, cur.At, i-1, prev.At)
			}
			for class := 0; class < telemetry.NumClasses; class++ {
				if cur.Received[class] < prev.Received[class] {
					c.report("metrics", "health-monotonic", -1, -1,
						"health sample %d class %v total %d below sample %d total %d",
						i, telemetry.Class(class), cur.Received[class], i-1, prev.Received[class])
				}
			}
		}
		prev = cur
		c.lastHealth = i + 1
	})
}

// observePair notes a cross-node inconsistency that is legal while a
// close or handshake is in flight; it becomes a violation when it
// persists past the grace window, counted from the later of its first
// observation and since, when the connection carrying it was installed.
func (c *Checker) observePair(rule string, a, b int, since sim.Time, format string, args ...any) {
	k := pairKey{rule: rule, a: a, b: b}
	st, tracked := c.pairs[k]
	if !tracked {
		st.first = c.t.Sim.Now()
	}
	st.seenPass = c.passes
	if age := c.t.Sim.Now() - max(st.first, since); !st.reported && age >= c.cfg.Grace {
		st.reported = true
		c.report("p2p", rule, a, b, "persisted %v (> grace %v): %s",
			age, c.cfg.Grace, fmt.Sprintf(format, args...))
	}
	c.pairs[k] = st
}

// sweepPairs forgets tracked inconsistencies that healed since the last
// pass, so a re-occurrence restarts its grace window.
func (c *Checker) sweepPairs() {
	for k, st := range c.pairs {
		if st.seenPass != c.passes {
			delete(c.pairs, k)
		}
	}
}
