package p2p

import (
	"slices"

	"manetp2p/internal/sim"
)

// This file is the read-only introspection surface the runtime invariant
// checker (internal/invariant) validates servents through. The servent's
// protocol state is deliberately unexported; Inspect copies a structural
// snapshot into caller-owned buffers so the checker can verify
// cross-servent invariants (symmetry, role consistency, caps) without
// reaching into — or being able to perturb — live protocol state.

// ConnView is one live connection as seen by the invariant checker.
type ConnView struct {
	Peer      int
	Random    bool
	Initiator bool
	ToMaster  bool
	ToSlave   bool
	Master    bool
	Since     sim.Time
	// Exactly one keepalive timer guards every connection: the initiator
	// pings, the responder watches a ping deadline. A connection with
	// neither armed can never detect peer loss and leaks forever.
	PingArmed     bool
	DeadlineArmed bool
}

// PendingView is one handshake in flight (see handshake).
type PendingView struct {
	Peer         int
	TimeoutArmed bool
}

// View is a structural snapshot of one servent. Slices are reused across
// Inspect calls on the same View, so a checker can sweep a whole network
// every sampling interval without steady-state allocation.
type View struct {
	Joined   bool
	State    HybridState
	Conns    []ConnView
	Pending  []PendingView
	CacheLen int // peer-cache population
}

// Inspect fills v with this servent's current structural state. Conns
// and Pending are sorted by peer id so violation reports are
// deterministic.
func (sv *Servent) Inspect(v *View) {
	v.Joined = sv.joined
	v.State = sv.state
	v.CacheLen = len(sv.peerCache)
	v.Conns = v.Conns[:0]
	for _, c := range sv.conns { // sorted below: keeps violation reports deterministic
		v.Conns = append(v.Conns, ConnView{
			Peer:          c.peer,
			Random:        c.random,
			Initiator:     c.initiator,
			ToMaster:      c.toMaster,
			ToSlave:       c.toSlave,
			Master:        c.master,
			Since:         c.since,
			PingArmed:     c.pingEv.Pending(),
			DeadlineArmed: c.deadlineEv.Pending(),
		})
	}
	slices.SortFunc(v.Conns, func(a, b ConnView) int { return a.Peer - b.Peer })

	v.Pending = v.Pending[:0]
	for _, h := range sv.pending { // sorted below: keeps violation reports deterministic
		v.Pending = append(v.Pending, PendingView{
			Peer:         h.peer,
			TimeoutArmed: h.timeout.Pending(),
		})
	}
	slices.SortFunc(v.Pending, func(a, b PendingView) int { return a.Peer - b.Peer })
}

// reportFn receives one invariant violation: the rule's name, the peer
// involved (-1 for none) and a printf-style detail.
type reportFn = func(rule string, peer int, format string, args ...any)

// CheckView runs the invariant rules only algorithm a states — which
// connection flags it sets, its capacities, its role state — on the view
// of one joined servent, calling report once per violation. The rules
// every algorithm shares live in internal/invariant.
func (a Algorithm) CheckView(v *View, par Params, report func(rule string, peer int, format string, args ...any)) {
	algorithms[a].impl.checkView(a, v, par, report)
}

// CheckPair runs a's cross-node rules on one live connection of a
// symmetric algorithm: cv is this servent's side, rc the peer's side
// toward it and pv the peer's view. report is called for every
// inconsistency observed; the checker decides whether it outlived its
// grace window.
func (a Algorithm) CheckPair(cv, rc *ConnView, pv *View, report func(rule string, peer int, format string, args ...any)) {
	algorithms[a].impl.checkPair(cv, rc, pv, report)
}

// checkRoleless reports what Hybrid's roles would leave behind under an
// algorithm a without them: role flags on a connection, a state other
// than StateInitial, and random links unless a has them (longLinks).
func checkRoleless(a Algorithm, v *View, longLinks bool, report reportFn) {
	for k := range v.Conns {
		cv := &v.Conns[k]
		if cv.Random && !longLinks {
			report("conn-flags", cv.Peer, "random link under algorithm %v", a)
		}
		if cv.ToMaster || cv.ToSlave || cv.Master {
			report("conn-flags", cv.Peer, "hybrid role flags (toMaster=%v toSlave=%v master=%v) under algorithm %v",
				cv.ToMaster, cv.ToSlave, cv.Master, a)
		}
	}
	if v.State != StateInitial {
		report("role-flags", -1, "state %v under algorithm %v", v.State, a)
	}
}

// SkipCloseForTest makes every closeConn toward peer a silent no-op on
// this servent — the seeded mutation of the invariant checker's
// detection tests: a protocol implementation that forgets one side of a
// teardown leaves an asymmetric "symmetric" connection behind, which
// must surface as a checker violation, never as silently skewed message
// counts. Production code never calls this.
func (sv *Servent) SkipCloseForTest(peer int) { sv.skipClose = peer }
