package p2p

import (
	"math/rand"
	"sort"

	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
	"manetp2p/internal/trace"
)

// conn is one overlay connection (a reference, possibly half of a
// symmetric pair).
type conn struct {
	peer      int
	random    bool // the Random algorithm's long-range link
	initiator bool // we asked for it, so we send the pings
	toMaster  bool // hybrid: peer is our master
	toSlave   bool // hybrid: peer is one of our slaves
	master    bool // hybrid: master-mesh link

	awaitingSeq uint32
	awaitPong   bool
	pingEv      sim.Handle // initiator: next ping / pong deadline
	deadlineEv  sim.Handle // responder: expected-ping deadline
	since       sim.Time   // established time, for lifetime statistics

	nextSpare *conn // intrusive spare-list link, meaningful only when closed
}

// handshake is one in flight: a solicitor-side three-way handshake (we
// sent accept and hold a reserved slot until confirm or timeout) or,
// marked slave, a Hybrid enslavement reservation awaiting the master.
// serial numbers the servent's handshakes, so a timeout names the one it
// was armed for.
type handshake struct {
	peer    int
	random  bool
	master  bool
	slave   bool
	serial  int
	timeout sim.Handle
}

// offerInfo is a response collected during the Random algorithm's
// farthest-responder window.
type offerInfo struct {
	peer      int
	bcastHops int
}

// Options configures a Servent beyond the protocol parameters.
type Options struct {
	Qualifier   float64 // hybrid device qualifier (higher = more capable)
	Files       []bool  // file holdings by rank; may be nil
	Collector   *telemetry.Collector
	Ledger      *QueryLedger  // the network's query ledger, shared by its servents; required
	RNG         *rand.Rand    // deterministic per-node stream; required
	NoQueries   bool          // disable the query workload (protocol-only tests)
	NoEstablish bool          // disable the establishment cycle (query-only tests)
	Tracer      *trace.Tracer // optional event tracing; nil = off
	Demand      Demand        // scripted workload engine; nil = the paper's built-in model
}

// Servent is one peer of the overlay: it runs one of the four
// (re)configuration algorithms plus the shared maintenance and query
// machinery.
type Servent struct {
	id  int
	s   *sim.Sim
	rt  netif.Protocol
	par Params
	alg Algorithm
	opt Options
	// impl is algorithms[alg].impl: the hooks the skeleton calls.
	impl algorithm

	joined bool
	conns  map[int]*conn
	// spare lists closed conn records for the next installConn. A record
	// arrives once closeConn has cancelled both its keepalive events and
	// run connClosed, so nothing of its previous life can still fire.
	spare *conn

	// Establishment state (decentralized algorithms and the hybrid
	// master mesh / initial capture cycle share this ring machinery).
	nhops        int
	timer        sim.Time
	cycleEv      sim.Handle
	cycleRunning bool
	pending      map[int]handshake
	hsSerial     int // the last handshake's serial

	// Random algorithm offer collection.
	collecting bool
	offers     []offerInfo
	collectEv  sim.Handle // the open window's end

	// Hybrid state; setRole is its only writer.
	state   HybridState
	noSlave sim.Handle // the MAXTIMERMASTER countdown

	// Query engine.
	nextQID uint32
	curReq  request // the open query, if curReq.open
	queryEv sim.Handle

	// Download extension.
	xfer       *xfer
	xferSerial int // the last download's serial

	// Peer-cache extension.
	peerCache map[int]*cacheEntry

	// skipClose is the invariant-checker mutation hook: closeConn toward
	// this peer becomes a no-op (-1 = disabled). See SkipCloseForTest.
	skipClose int

	peersScratch []int // sorted-peer buffer for hot iteration paths; see sortedPeers
	cacheScratch []int // sorted peer-cache id buffer; see cachedPeerIDs
}

type request struct {
	open     bool
	qid      uint32
	file     int
	answers  int
	minP2P   int
	minAdhoc int
	holder   int // nearest answering holder (download extension)
}

// NewServent creates a servent for node id running alg. The router's
// upper-layer hooks must be wired to HandleUnicast/HandleBroadcast by
// the caller (the manet node does this).
func NewServent(id int, s *sim.Sim, rt netif.Protocol, par Params, alg Algorithm, opt Options) *Servent {
	// Unreachable from input: manet.Build runs Scenario.Validate first.
	if err := par.Validate(); err != nil {
		panic(err)
	}
	par.Download = par.Download.withDefaults()
	par.PeerCache = par.PeerCache.withDefaults()
	if opt.RNG == nil || opt.Ledger == nil || !alg.Valid() {
		// Unreachable: every caller passes a stream, a ledger and a
		// checked Algorithm.
		panic("p2p: NewServent needs Options.RNG, Options.Ledger and a valid Algorithm")
	}
	return &Servent{
		id:        id,
		s:         s,
		rt:        rt,
		par:       par,
		alg:       alg,
		impl:      algorithms[alg].impl,
		opt:       opt,
		conns:     make(map[int]*conn),
		pending:   make(map[int]handshake),
		skipClose: -1,
	}
}

// The servent's timer callbacks are package-level functions that find
// it in Arg.X (sim.Arg), so scheduling allocates nothing and a servent
// binds no method value. These run the ones with no other argument.
func fireEnsureCycle(a sim.Arg) { a.X.(*Servent).ensureCycle() }
func fireCycleStep(a sim.Arg)   { a.X.(*Servent).cycleStep() }
func fireRunQuery(a sim.Arg)    { a.X.(*Servent).runQuery() }
func fireFinishQuery(a sim.Arg) { a.X.(*Servent).finishQuery() }
func fireEndCollect(a sim.Arg)  { a.X.(*Servent).endRandomCollect() }
func fireNoSlave(a sim.Arg)     { a.X.(*Servent).noSlaveExpired() }

// sortedPeers fills the servent's scratch buffer with the connected peer
// ids in ascending order — the same content Peers returns, without the
// allocation. Only leaf messaging paths (query fan-out) may use it: the
// buffer is invalidated by the next sortedPeers call, so callers must not
// re-enter any code that could call it again while iterating.
func (sv *Servent) sortedPeers() []int {
	sv.peersScratch = sv.AppendPeers(sv.peersScratch[:0])
	sort.Ints(sv.peersScratch) // keeps runs reproducible
	return sv.peersScratch
}

// ID returns the node id.
func (sv *Servent) ID() int { return sv.id }

// Algorithm returns the configured algorithm.
func (sv *Servent) Algorithm() Algorithm { return sv.alg }

// Qualifier returns the hybrid device qualifier.
func (sv *Servent) Qualifier() float64 { return sv.opt.Qualifier }

// Joined reports whether the servent is participating in the overlay.
func (sv *Servent) Joined() bool { return sv.joined }

// State returns the hybrid role (meaningful only for the Hybrid
// algorithm; decentralized servents stay in StateInitial).
func (sv *Servent) State() HybridState { return sv.state }

// Master returns the current master's id for a slave, or -1.
func (sv *Servent) Master() int {
	for _, c := range sv.conns { // commutative: at most one conn has toMaster set
		if c.toMaster {
			return c.peer
		}
	}
	return -1
}

// Slaves returns the ids of this master's slaves, sorted.
func (sv *Servent) Slaves() []int {
	var out []int
	for _, c := range sv.conns { // sorted below: keeps runs reproducible
		if c.toSlave {
			out = append(out, c.peer)
		}
	}
	sort.Ints(out)
	return out
}

// Peers returns the ids of all connected peers, sorted.
func (sv *Servent) Peers() []int {
	out := sv.AppendPeers(make([]int, 0, len(sv.conns)))
	sort.Ints(out) // keeps runs reproducible
	return out
}

// AppendPeers appends the connected peer ids to dst and returns it —
// the same contents Peers returns, without the allocation once dst's
// capacity is warm, in arbitrary (map) order. The overlay-snapshot
// fill path (manet.Network.AppendOverlayAdjacency) runs it per node
// per tick; every metric downstream is set- or count-based, so callers
// must not rely on the order.
func (sv *Servent) AppendPeers(dst []int) []int {
	for p := range sv.conns { // commutative: contract above forbids order-dependent callers
		dst = append(dst, p)
	}
	return dst
}

// ConnCount returns the number of live connections (references).
func (sv *Servent) ConnCount() int { return len(sv.conns) }

// HasRandomConn reports whether a Random-algorithm long link is live.
func (sv *Servent) HasRandomConn() bool {
	for _, c := range sv.conns { // commutative: pure any-match
		if c.random {
			return true
		}
	}
	return false
}

// ConnIsRandom reports whether the link to peer is a random connection.
func (sv *Servent) ConnIsRandom(peer int) bool {
	c, ok := sv.conns[peer]
	return ok && c.random
}

// HasFile reports whether this servent holds file rank r.
func (sv *Servent) HasFile(r int) bool {
	return sv.opt.Files != nil && r >= 0 && r < len(sv.opt.Files) && sv.opt.Files[r]
}

// OpenQuery reports whether a query collection window is currently open
// (the invariant checker cross-checks this against the workload engine's
// in-flight count).
func (sv *Servent) OpenQuery() bool { return sv.curReq.open }

// Join starts participation: the establishment cycle begins after a
// small random stagger, and (unless disabled) the query workload starts.
func (sv *Servent) Join() {
	if sv.joined {
		return
	}
	sv.joined = true
	sv.nhops = sv.par.NHopsInitial
	sv.timer = sv.par.TimerInitial
	stagger := sim.UniformDuration(sv.opt.RNG, 0, sv.par.JoinStaggerMax)
	if !sv.opt.NoEstablish {
		sv.s.ScheduleArg(stagger, fireEnsureCycle, sim.Arg{X: sv})
	}
	if !sv.opt.NoQueries {
		first := stagger + sv.par.QueryCollect + sv.queryGap()
		sv.queryEv = sv.s.ScheduleArg(first, fireRunQuery, sim.Arg{X: sv})
	}
}

// Leave stops participation. If graceful, best-effort bye messages tell
// peers immediately; otherwise they discover the loss via keepalives —
// the death model of the churn experiments.
func (sv *Servent) Leave(graceful bool) {
	if !sv.joined {
		return
	}
	sv.joined = false
	for _, peer := range sv.Peers() { // sorted: keeps runs reproducible
		sv.closeConn(peer, graceful)
	}
	sv.dropPending()
	sv.cycleEv.Cancel()
	sv.cycleEv = sim.Handle{}
	sv.cycleRunning = false
	sv.queryEv.Cancel()
	sv.queryEv = sim.Handle{}
	if sv.curReq.open {
		if d := sv.opt.Demand; d != nil {
			d.Aborted(sv.id)
		}
	}
	sv.curReq = request{}
	if sv.xfer != nil {
		sv.xfer.timeout.Cancel()
		sv.xfer = nil
	}
	sv.impl.leave(sv)
}

// count records a received message in the collector.
func (sv *Servent) count(k netif.MsgKind) {
	if sv.opt.Collector != nil {
		sv.opt.Collector.Recv(sv.id, classOf(k))
	}
}

// send unicasts a p2p message to peer through the ad-hoc network.
func (sv *Servent) send(peer int, m Msg) {
	sv.rt.Send(peer, sizeOf(m.Kind), m)
}

// broadcast floods a p2p message within ttl ad-hoc hops.
func (sv *Servent) broadcast(ttl int, m Msg) {
	sv.rt.Broadcast(ttl, sizeOf(m.Kind), m)
}

// HandleBroadcast is the router's controlled-broadcast upper hook.
func (sv *Servent) HandleBroadcast(d netif.Delivery) {
	if !sv.joined || d.From == sv.id {
		return
	}
	sv.count(d.Payload.Kind)
	m := d.Payload
	if m.Kind == msgSolicit {
		sv.onSolicit(d.From, m, d.Hops)
		return
	}
	sv.impl.handle(sv, d.From, m)
}

// HandleUnicast is the router's unicast upper hook.
func (sv *Servent) HandleUnicast(d netif.Delivery) {
	if !sv.joined {
		return
	}
	sv.count(d.Payload.Kind)
	m := d.Payload
	switch m.Kind {
	case msgSolicit:
		// Unicast solicitation: the peer-cache extension's direct
		// reconnect attempt. Same willingness rules as the broadcast.
		sv.onSolicit(d.From, m, d.Hops)
	case msgOffer:
		sv.rememberPeer(d.From)
		sv.onOffer(d.From, m)
	case msgAccept:
		sv.onAccept(d.From, m)
	case msgConfirm:
		sv.onConfirm(d.From, m)
	case msgReject:
		sv.onReject(d.From)
	case msgPing:
		sv.onPing(d.From, m)
	case msgPong:
		sv.onPong(d.From, m, d.Hops)
	case msgBye:
		sv.onBye(d.From)
	case msgQuery:
		sv.onQuery(d.From, m)
	case msgQueryHit:
		sv.onQueryHit(d.From, m, d.Hops)
	case msgFetchReq:
		sv.onFetchReq(d.From, m)
	case msgChunk:
		sv.onChunk(d.From, m)
	default:
		sv.impl.handle(sv, d.From, m)
	}
}

// installConn finalizes connection v, in a record from the spare list
// when one waits there, and starts its keepalive machinery.
func (sv *Servent) installConn(v conn) {
	if _, dup := sv.conns[v.peer]; dup {
		return
	}
	c := sv.spare
	if c != nil {
		sv.spare = c.nextSpare
	} else {
		c = new(conn)
	}
	*c = v
	sv.conns[c.peer] = c
	c.since = sv.s.Now()
	sv.rememberPeer(c.peer)
	sv.opt.Tracer.Emit(trace.KindConn, sv.id, c.peer,
		"established random=%v master=%v toMaster=%v toSlave=%v",
		trace.Bool(c.random), trace.Bool(c.master), trace.Bool(c.toMaster), trace.Bool(c.toSlave))
	// "Whenever a connection is done, the timer is reset to its initial
	// value" (§6.1.3).
	sv.timer = sv.par.TimerInitial
	if c.initiator {
		sv.armPing(c, sv.par.PingInterval)
	} else {
		sv.armDeadline(c)
	}
}

// closeConn tears down the connection to peer, optionally notifying it.
func (sv *Servent) closeConn(peer int, notify bool) {
	if peer == sv.skipClose {
		return // seeded mutation for invariant-checker tests
	}
	c, ok := sv.conns[peer]
	if !ok {
		return
	}
	delete(sv.conns, peer)
	if sv.opt.Collector != nil && c.initiator {
		// Counted at the initiator only, so each symmetric pair
		// contributes one sample (Basic references are all initiator).
		sv.opt.Collector.RecordLifetime((sv.s.Now() - c.since).Seconds())
	}
	sv.opt.Tracer.Emit(trace.KindConn, sv.id, peer, "closed notify=%v", trace.Bool(notify))
	c.pingEv.Cancel()
	c.deadlineEv.Cancel()
	if notify && sv.alg.Symmetric() {
		sv.send(peer, Msg{Kind: msgBye})
	}
	if sv.joined {
		sv.impl.connClosed(sv, c)
	}
	c.nextSpare = sv.spare
	sv.spare = c
}

// onBye handles a peer's teardown notice.
func (sv *Servent) onBye(peer int) {
	sv.closeConn(peer, false)
}
