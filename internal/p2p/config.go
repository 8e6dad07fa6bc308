// Package p2p implements the paper's contribution: four algorithms that
// configure, maintain and reorganize a peer-to-peer overlay on top of a
// mobile ad-hoc network — Basic, Regular, Random and Hybrid (§6 of the
// paper) — together with the Gnutella-style query system used to evaluate
// them (§7.2).
//
// "Connections" here are references, as the paper stresses: a node keeps
// the addresses of peers it believes reachable; symmetrical connections
// are reference pairs maintained by one-sided pings.
//
// The four share one skeleton, which names no algorithm: a
// self-rescheduling establishment cycle with the expanding-ring radius
// and doubling timer (ring.go), the three-way handshake (handshake.go),
// keepalives with the MAXDIST rule (keepalive.go), and connection
// install/teardown and message dispatch (servent.go). Each algorithm is a
// stateless value in its own file (basic.go, regular.go, random.go,
// hybrid.go) supplying the hooks of the algorithm interface: one cycle
// step, when it still wants links, whom it answers, what a lost link and
// a Leave reset, which message kinds it alone speaks, and the invariant
// rules only it states. The algorithms table below registers them.
// Hybrid's role changes only through setRole, which drops every
// handshake in flight (pending), so none outlives the role that began it.
package p2p

import (
	"fmt"
	"strings"

	"manetp2p/internal/sim"
)

// Algorithm selects one of the paper's four (re)configuration algorithms.
type Algorithm int

const (
	// Basic is the fixed-radius, asymmetric-reference baseline (§6.1.1).
	Basic Algorithm = iota
	// Regular is the expanding-ring, symmetric-connection algorithm (§6.1.3).
	Regular
	// Random is Regular plus one long-range "random" connection meant to
	// induce small-world structure (§6.1.4).
	Random
	// Hybrid is the master/slave clustering algorithm for heterogeneous
	// networks (§6.2).
	Hybrid
)

// algorithms is the one table of overlay algorithms, indexed by value:
// String, ParseAlgorithm, Algorithms, Valid, Symmetric and every servent
// and checker dispatch read it, so a new algorithm is one file and one
// entry here. symmetric marks algorithms whose connections are reference
// pairs both endpoints acknowledge; Basic's references are
// one-directional by design (§6.1.1).
var algorithms = [...]struct {
	name      string
	symmetric bool
	impl      algorithm
}{
	Basic:   {"Basic", false, basicAlg{}},
	Regular: {"Regular", true, regularAlg{}},
	Random:  {"Random", true, randomAlg{}},
	Hybrid:  {"Hybrid", true, hybridAlg{}},
}

// algorithm is what one of the paper's algorithms adds to the shared
// skeleton. Implementations hold no state: what they act on stays on the
// Servent, where Inspect reads it.
type algorithm interface {
	// step runs one iteration of the establishment cycle; it reschedules
	// the cycle or clears cycleRunning.
	step(sv *Servent)
	// needEstablish reports whether the servent still wants connections;
	// the cycle stops once it is false.
	needEstablish(sv *Servent) bool
	// needRegularSlot reports whether a solicited, non-random slot is
	// open: it gates ring solicitations and accepting an offer.
	needRegularSlot(sv *Servent) bool
	// willing is the responder's capacity rule for a solicitation or an
	// accept from a peer it neither holds nor is negotiating with.
	willing(sv *Servent, random, masterOnly bool) bool
	// connClosed reacts to the loss of c while the servent is joined.
	connClosed(sv *Servent, c *conn)
	// leave resets the algorithm's own state when the servent leaves.
	leave(sv *Servent)
	// handle serves a received message of a kind the skeleton does not
	// handle itself: the kinds only this algorithm speaks. Another
	// algorithm's kinds are ignored.
	handle(sv *Servent, from int, m Msg)
	// checkView and checkPair back Algorithm.CheckView and CheckPair.
	checkView(a Algorithm, v *View, par Params, report reportFn)
	checkPair(cv, rc *ConnView, pv *View, report reportFn)
}

// Valid reports whether a names one of the algorithms.
func (a Algorithm) Valid() bool { return a >= 0 && int(a) < len(algorithms) }

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	if !a.Valid() {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algorithms[a].name
}

// Symmetric reports whether the algorithm keeps connections as reference
// pairs both endpoints acknowledge.
func (a Algorithm) Symmetric() bool { return a.Valid() && algorithms[a].symmetric }

// Algorithms lists all four in the paper's presentation order.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(algorithms))
	for i := range out {
		out[i] = Algorithm(i)
	}
	return out
}

// ParseAlgorithm resolves an algorithm by name, ignoring case.
func ParseAlgorithm(name string) (Algorithm, error) {
	names := make([]string, len(algorithms))
	for a, e := range algorithms {
		if strings.EqualFold(e.name, name) {
			return Algorithm(a), nil
		}
		names[a] = strings.ToLower(e.name)
	}
	return 0, fmt.Errorf("unknown algorithm %q (%s)", name, strings.Join(names, "|"))
}

// QueryMode selects how searches propagate over the overlay.
type QueryMode int

const (
	// QueryFlood is the paper's Gnutella-style TTL-limited flood (§7.2).
	QueryFlood QueryMode = iota
	// QueryRandomWalk replaces the flood with k parallel random walkers
	// — the classic bandwidth-vs-latency alternative from the
	// Gnutella-scalability debate the paper reviews in §5.
	QueryRandomWalk
)

// queryModeNames names each query mode, indexed by its value; String and
// Params.Validate's range check read it.
var queryModeNames = [...]string{QueryFlood: "flood", QueryRandomWalk: "randomwalk"}

// String names the query mode.
func (m QueryMode) String() string {
	if m < 0 || int(m) >= len(queryModeNames) {
		return fmt.Sprintf("querymode(%d)", int(m))
	}
	return queryModeNames[m]
}

// Params collects every protocol constant from Table 2 of the paper plus
// the timing constants the paper uses but does not tabulate (marked).
type Params struct {
	// Table 2 values.
	MaxNConn     int // MAXNCONN: max connections per node (3)
	NHopsInitial int // NHOPS_INITIAL: first discovery radius, ad-hoc hops (2)
	MaxNHops     int // MAXNHOPS: largest discovery radius (6)
	NHopsBasic   int // NHOPS: Basic algorithm's fixed radius (6)
	MaxDist      int // MAXDIST: max ad-hoc distance between connected peers (6)
	MaxNSlaves   int // MAXNSLAVES: slaves per master (3)
	QueryTTL     int // TTL for queries, p2p hops (6)

	// Query-propagation extension (§5 discussion; default = the paper's
	// flooding).
	QueryMode QueryMode
	Walkers   int // random-walk mode: parallel walkers per request
	WalkTTL   int // random-walk mode: hop budget per walker

	// Download extension: fetch found files and replicate them locally
	// (off by default — the paper's simulations stop at query hits).
	Download DownloadConfig

	// PeerCache extension: try unicast reconnects to remembered peers
	// before broadcasting (off by default — the paper always floods).
	PeerCache PeerCacheConfig

	// Timing constants (not tabulated in the paper; see DESIGN.md).
	TimerBasic     sim.Time // Basic's fixed retry interval
	TimerInitial   sim.Time // TIMER_INITIAL: first retry interval
	MaxTimer       sim.Time // MAXTIMER: retry-interval ceiling
	PingInterval   sim.Time // keepalive period
	PongTimeout    sim.Time // wait for pong before closing
	HandshakeWait  sim.Time // wait for accept/confirm before abandoning
	OfferWindow    sim.Time // Random: how long to collect offers before picking the farthest
	MasterIdle     sim.Time // MAXTIMERMASTER: slaveless master reverts to initial
	QueryCollect   sim.Time // answer collection window per request (30 s, §7.2)
	QueryGapMin    sim.Time // min extra wait before the next query (15 s)
	QueryGapMax    sim.Time // max extra wait before the next query (45 s)
	JoinStaggerMax sim.Time // random start offset to avoid lockstep
}

// DefaultParams returns Table 2 of the paper plus this reproduction's
// timing defaults.
func DefaultParams() Params {
	return Params{
		MaxNConn:     3,
		NHopsInitial: 2,
		MaxNHops:     6,
		NHopsBasic:   6,
		MaxDist:      6,
		MaxNSlaves:   3,
		QueryTTL:     6,
		QueryMode:    QueryFlood,
		Walkers:      2,
		WalkTTL:      16,

		// Chosen so the per-node-per-hour message magnitudes land in the
		// range the paper's Figures 7-12 report (see EXPERIMENTS.md):
		// sparse 50-node networks rarely saturate MAXNCONN, so nodes
		// keep retrying for the whole run and the retry/keepalive
		// periods dominate the counts.
		// TIMER (Basic) equals TIMER_INITIAL: the paper presents the
		// Regular algorithm's doubling timer as an improvement over
		// Basic's fixed one, so both start from the same interval.
		TimerBasic:     30 * sim.Second,
		TimerInitial:   30 * sim.Second,
		MaxTimer:       240 * sim.Second,
		PingInterval:   60 * sim.Second,
		PongTimeout:    15 * sim.Second,
		HandshakeWait:  10 * sim.Second,
		OfferWindow:    5 * sim.Second,
		MasterIdle:     120 * sim.Second,
		QueryCollect:   30 * sim.Second,
		QueryGapMin:    15 * sim.Second,
		QueryGapMax:    45 * sim.Second,
		JoinStaggerMax: 5 * sim.Second,
	}
}

// Validate reports a descriptive error for inconsistent parameters.
func (p Params) Validate() error {
	switch {
	case p.MaxNConn < 1:
		return fmt.Errorf("p2p: MaxNConn %d < 1", p.MaxNConn)
	case p.NHopsInitial < 1 || p.NHopsInitial > p.MaxNHops:
		return fmt.Errorf("p2p: NHopsInitial %d outside [1, MaxNHops=%d]", p.NHopsInitial, p.MaxNHops)
	case p.MaxNHops%2 != 0:
		// The expanding ring advances by 2 modulo MaxNHops+2; an odd
		// ceiling never hits 0 and the sweep emits radii above MAXNHOPS.
		return fmt.Errorf("p2p: MaxNHops %d must be even", p.MaxNHops)
	case p.NHopsInitial%2 != 0:
		// Same sequence argument: an odd start walks the odd residues and
		// overshoots MaxNHops before wrapping.
		return fmt.Errorf("p2p: NHopsInitial %d must be even", p.NHopsInitial)
	case p.NHopsBasic < 1:
		return fmt.Errorf("p2p: NHopsBasic %d < 1", p.NHopsBasic)
	case p.MaxDist < 1:
		return fmt.Errorf("p2p: MaxDist %d < 1", p.MaxDist)
	case p.MaxNSlaves < 1:
		return fmt.Errorf("p2p: MaxNSlaves %d < 1", p.MaxNSlaves)
	case p.QueryTTL < 1:
		return fmt.Errorf("p2p: QueryTTL %d < 1", p.QueryTTL)
	case p.TimerBasic <= 0 || p.TimerInitial <= 0 || p.MaxTimer < p.TimerInitial:
		return fmt.Errorf("p2p: timer configuration invalid")
	case p.PingInterval <= 0 || p.PongTimeout <= 0:
		return fmt.Errorf("p2p: keepalive configuration invalid")
	case p.HandshakeWait <= 0:
		return fmt.Errorf("p2p: HandshakeWait %v not positive", p.HandshakeWait)
	case p.OfferWindow <= 0:
		return fmt.Errorf("p2p: OfferWindow %v not positive", p.OfferWindow)
	case p.MasterIdle <= 0:
		return fmt.Errorf("p2p: MasterIdle %v not positive", p.MasterIdle)
	case p.JoinStaggerMax < 0:
		return fmt.Errorf("p2p: JoinStaggerMax %v negative", p.JoinStaggerMax)
	case p.QueryCollect <= 0 || p.QueryGapMin < 0 || p.QueryGapMax < p.QueryGapMin:
		return fmt.Errorf("p2p: query timing invalid")
	case p.QueryMode < 0 || int(p.QueryMode) >= len(queryModeNames):
		return fmt.Errorf("p2p: QueryMode %d is not one of %v", int(p.QueryMode), queryModeNames)
	case p.QueryMode == QueryRandomWalk && (p.Walkers < 1 || p.WalkTTL < 1):
		return fmt.Errorf("p2p: random-walk query configuration invalid")
	}
	// Each of these is added to the clock or bounds a random draw: past
	// half the clock's range the sum, or the draw's span, overflows.
	for _, t := range []sim.Time{p.TimerBasic, p.MaxTimer, p.PingInterval, p.PongTimeout, p.HandshakeWait,
		p.OfferWindow, p.MasterIdle, p.QueryCollect, p.QueryGapMax, p.JoinStaggerMax, p.Download.ChunkWait} {
		if t > sim.MaxTime/2 {
			return fmt.Errorf("p2p: timing constant %v overflows the clock", t)
		}
	}
	return nil
}
