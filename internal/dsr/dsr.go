// Package dsr implements Dynamic Source Routing, the second on-demand
// protocol from the routing comparison the paper bases its AODV choice
// on ([13] in the paper; Johnson/Maltz's DSR). Routes are discovered by
// flooding route requests that accumulate the traversed path; data
// packets carry their complete source route, so relays keep no routing
// state but headers grow with path length — the classic DSR trade-off
// this reproduction's routing sweep exposes. A node's route cache holds
// one source route per destination, indexed by node id; a learned path
// is stored once and its prefixes, the routes to the hops along it,
// share that storage.
package dsr

import (
	"fmt"
	"slices"

	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// Nominal packet sizes: fixed part + per-hop address bytes for anything
// carrying a source route.
const (
	sizeRREQBase  = 16
	sizeRREPBase  = 12
	sizeRERR      = 16
	sizeDataBase  = 12
	sizeBcastBase = 16
	sizePerHop    = 4
)

// Frames travel as netif.Packet values (no per-hop boxing). DSR uses:
//
//   - PktRREQ: Origin, ID, Dst, TTL, Path (nodes traversed so far,
//     excluding the origin).
//   - PktRREP: Origin, Dst, Path (full path origin -> ... -> dst,
//     excluding both ends), Pos (index of the current hop on the
//     reversed way back).
//   - PktRERR: Origin, BadA/BadB (upstream/downstream ends of the
//     broken link), Path (reversed prefix back to the origin), Pos.
//   - PktData: Origin, Dst, Path (intermediate hops origin -> dst),
//     Pos (next hop index into Path; len(Path) means deliver to Dst),
//     Size, Msg.
//   - PktBcast: the shared route.Bcaster carrier; DSR piggybacks the
//     traversed path so receivers learn a source route back to the
//     origin for free (see the Router's Accept/PrepRelay hooks).

// cachedRoute is one known source route. A stored path is never written
// after it is stored: the prefix routes learnRoute derives from it alias
// its storage. Replacing a route stores a new slice; it never edits the
// old.
type cachedRoute struct {
	path    []int // intermediate hops, self -> dst
	expires sim.Time
	known   bool // a one-hop route has an empty path
}

// Config tunes the DSR layer; start from DefaultConfig.
type Config struct {
	RouteLifetime       sim.Time
	Seen                route.CacheConfig // duplicate suppression of RREQs and broadcasts
	MaxDiscoveryRetries int
	DiscoveryTTL        int
	HopTraversal        sim.Time
	BufferCap           int
}

// DefaultConfig mirrors the AODV defaults so cross-protocol sweeps are
// apples to apples.
func DefaultConfig() Config {
	return Config{
		// As with AODV, broken links are detected at forward time; the
		// lifetime only bounds silent staleness.
		RouteLifetime:       30 * sim.Second,
		Seen:                route.DefaultCacheConfig(),
		MaxDiscoveryRetries: 2,
		DiscoveryTTL:        20,
		HopTraversal:        10 * sim.Millisecond,
		BufferCap:           16,
	}
}

// Router is the per-node DSR instance; it satisfies netif.Protocol. The
// shared control-plane mechanics come from internal/route; this file is
// the source-routing state machine proper.
type Router struct {
	*route.Core
	cfg Config

	cache    []cachedRoute // by destination id
	rreqID   uint32
	seenRREQ *route.DupCache
	bcast    *route.Bcaster
	pending  *route.Pending[netif.Packet]

	// Scratch for the paths this node builds: a reversed path for
	// learnRoute, which copies what it keeps, or a frame's Path, which
	// the medium copies on Send. Each use ends before the next begins.
	pathScratch []int

	// Callback for the typed scheduling API, bound once at construction
	// so the hot paths schedule without a per-call closure allocation.
	discTimeoutFn func(sim.Arg)
}

var _ netif.Protocol = (*Router)(nil)

// NewRouter creates the DSR layer for node id; pass HandleFrame as the
// node's radio receiver.
func NewRouter(id int, pl *route.Plane, cfg Config) *Router {
	core := route.NewCore(id, pl)
	r := &Router{
		Core:     core,
		cfg:      cfg,
		cache:    make([]cachedRoute, core.Medium.NumNodes()),
		seenRREQ: route.NewDupCache(core, netif.PktRREQ, cfg.Seen),
		bcast:    route.NewBcaster(core, sizeBcastBase, sizePerHop, cfg.Seen, true),
		pending:  route.NewPending[netif.Packet](cfg.BufferCap),
	}
	core.Route = r.routeData
	r.bcast.Accept = r.acceptBcast
	r.bcast.PrepRelay = r.prepBcastRelay
	r.discTimeoutFn = r.discTimeout
	return r
}

// acceptBcast learns the reverse source route a broadcast accumulated;
// the delivered hop count is the path length, not the shared carrier's
// hop counter.
func (r *Router) acceptBcast(prev int, b *netif.Packet) int {
	r.learnRoute(b.Origin, r.reversed(b.Path))
	return len(b.Path) + 1
}

// prepBcastRelay appends this node to the traversed path — after
// delivery, so the reported path excludes the relaying node itself.
func (r *Router) prepBcastRelay(b *netif.Packet) {
	b.Path = r.through(b.Path)
}

// through returns path followed by this node, in the router's path
// scratch. The received path is shared by every receiver of its frame,
// so a relay builds the longer one in its own storage instead of
// appending in place.
func (r *Router) through(path []int) []int {
	r.pathScratch = append(append(r.pathScratch[:0], path...), r.ID())
	return r.pathScratch
}

// discTimeout unpacks the typed-arg timer payload for discoveryTimeout.
func (r *Router) discTimeout(a sim.Arg) {
	r.discoveryTimeout(a.I0, a.X.(*route.Discovery[netif.Packet]))
}

// HopsTo reports the cached route length to dst.
func (r *Router) HopsTo(dst int) (int, bool) {
	cr, ok := r.route(dst)
	if !ok {
		return 0, false
	}
	return len(cr.path) + 1, true
}

func (r *Router) route(dst int) (cachedRoute, bool) {
	cr := r.cache[dst]
	if !cr.known || cr.expires < r.Sim.Now() {
		return cachedRoute{}, false
	}
	return cr, true
}

// learnRoute caches a source route self -> dst (intermediates only),
// preferring shorter paths and refreshing lifetimes.
func (r *Router) learnRoute(dst int, path []int) {
	if dst == r.ID() {
		return
	}
	// Routes through ourselves would loop.
	for _, h := range path {
		if h == r.ID() || h == dst {
			return
		}
	}
	now := r.Sim.Now()
	expires := now + r.cfg.RouteLifetime
	old := &r.cache[dst]
	if old.known && old.expires >= now && len(old.path) < len(path) {
		return
	}
	cp := old.path
	if !old.known || !slices.Equal(cp, path) {
		cp = append([]int(nil), path...)
	}
	*old = cachedRoute{path: cp, expires: expires, known: true}
	// Prefix routes come for free, and share cp's storage: the capacity
	// limit keeps any append to a prefix from writing into cp.
	for i, h := range cp {
		if pre := &r.cache[h]; pre.known && pre.expires >= now && len(pre.path) <= i {
			continue
		}
		r.cache[h] = cachedRoute{path: cp[:i:i], expires: expires, known: true}
	}
}

// dropRoutesVia removes every cached route using the directed link a->b:
// the hop sequence self, path..., dst taking b right after a.
func (r *Router) dropRoutesVia(a, b int) {
	for dst := range r.cache {
		cr := &r.cache[dst]
		if !cr.known {
			continue
		}
		prev, via := r.ID(), false
		for _, h := range cr.path {
			if prev == a && h == b {
				via = true
				break
			}
			prev = h
		}
		if via || prev == a && dst == b {
			*cr = cachedRoute{}
		}
	}
}

// routeData routes payload to dst, discovering a source route on demand.
func (r *Router) routeData(dst, size int, payload netif.Msg) {
	pkt := netif.Packet{Kind: netif.PktData, Origin: r.ID(), Dst: dst, Size: size, Msg: payload}
	if cr, ok := r.route(dst); ok {
		pkt.Path = cr.path
		r.forward(pkt)
		return
	}
	r.enqueue(pkt)
}

func (r *Router) enqueue(pkt netif.Packet) {
	d, inProgress := r.pending.Get(pkt.Dst)
	if !inProgress {
		d = r.pending.Start(pkt.Dst)
		r.Count.Discoveries++
		r.sendRREQ(pkt.Dst, d)
	}
	if !r.pending.Push(d, pkt) {
		r.Count.DataDropped++
		r.FailSend(pkt.Dst, pkt.Msg)
	}
}

func (r *Router) sendRREQ(dst int, d *route.Discovery[netif.Packet]) {
	r.rreqID++
	q := netif.Packet{Kind: netif.PktRREQ, Origin: r.ID(), ID: r.rreqID, Dst: dst, TTL: r.cfg.DiscoveryTTL}
	r.seenRREQ.Mark(route.Key{Origin: r.ID(), ID: q.ID})
	r.Count.CtrlOrig++
	r.Medium.Send(radio.Frame{Src: r.ID(), Dst: radio.BroadcastAddr, Size: sizeRREQBase, Payload: q})
	wait := 2 * sim.Time(r.cfg.DiscoveryTTL) * r.cfg.HopTraversal
	d.Timer = r.Sim.ScheduleArg(wait, r.discTimeoutFn, sim.Arg{I0: dst, X: d})
}

func (r *Router) discoveryTimeout(dst int, d *route.Discovery[netif.Packet]) {
	if !r.pending.Current(dst, d) {
		return
	}
	if _, ok := r.route(dst); ok {
		r.completeDiscovery(dst)
		return
	}
	d.Retries++
	if d.Retries > r.cfg.MaxDiscoveryRetries {
		r.pending.Take(dst)
		r.Count.DiscoverFailed++
		for _, pkt := range d.Queue {
			r.Count.DataDropped++
			r.FailSend(dst, pkt.Msg)
		}
		r.pending.Recycle(d)
		return
	}
	r.sendRREQ(dst, d)
}

func (r *Router) completeDiscovery(dst int) {
	cr, haveRoute := r.route(dst)
	if !haveRoute {
		return
	}
	d, ok := r.pending.Take(dst)
	if !ok {
		return
	}
	for _, pkt := range d.Queue {
		pkt.Path = cr.path
		pkt.Pos = 0
		r.forward(pkt)
	}
	r.pending.Recycle(d)
}

// forward transmits pkt to its next source-route hop, raising RERR on a
// broken link.
func (r *Router) forward(pkt netif.Packet) {
	next := pkt.Dst
	if pkt.Pos < len(pkt.Path) {
		next = pkt.Path[pkt.Pos]
	}
	if !r.Medium.InRange(r.ID(), next) {
		r.linkBroken(pkt.Origin, r.ID(), next, pkt.Path, pkt.Pos)
		if pkt.Origin == r.ID() {
			r.cache[pkt.Dst] = cachedRoute{}
			pkt.Path = nil
			pkt.Pos = 0
			r.enqueue(pkt)
		} else {
			r.Count.DataDropped++
		}
		return
	}
	if pkt.Origin != r.ID() {
		r.Count.DataForwarded++
	}
	size := pkt.Size + sizeDataBase + sizePerHop*len(pkt.Path)
	r.Medium.Send(radio.Frame{Src: r.ID(), Dst: next, Size: size, Payload: pkt})
}

// linkBroken drops local routes over the dead link and notifies the
// packet origin along the reversed traversed prefix.
func (r *Router) linkBroken(origin, a, b int, path []int, pos int) {
	r.dropRoutesVia(a, b)
	if origin == r.ID() {
		return
	}
	// Reversed prefix back to the origin: the hops before us, reversed.
	prefix := r.pathScratch[:0]
	for i := pos - 1; i >= 0; i-- {
		if path[i] != r.ID() {
			prefix = append(prefix, path[i])
		}
	}
	r.pathScratch = prefix
	e := netif.Packet{Kind: netif.PktRERR, Origin: origin, BadA: a, BadB: b, Path: prefix}
	r.sendRERR(e, false)
}

func (r *Router) sendRERR(e netif.Packet, relay bool) {
	next := e.Origin
	if e.Pos < len(e.Path) {
		next = e.Path[e.Pos]
	}
	if !r.Medium.InRange(r.ID(), next) {
		return // best-effort; the origin's own retry will discover
	}
	if relay {
		r.Count.CtrlRelayed++
	} else {
		r.Count.CtrlOrig++
	}
	r.Medium.Send(radio.Frame{Src: r.ID(), Dst: next, Size: sizeRERR + sizePerHop*len(e.Path), Payload: e})
}

// HandleFrame dispatches radio arrivals on packet kind. The frame is the
// medium's shared copy (radio.Receiver): the handlers only read through
// the pointer — Path included — and copy the packet once they know they
// will relay it. Path is valid only during the call: learnRoute copies
// what it keeps.
func (r *Router) HandleFrame(f *radio.Frame) {
	switch f.Payload.Kind {
	case netif.PktRREQ:
		r.handleRREQ(&f.Payload)
	case netif.PktRREP:
		r.handleRREP(&f.Payload)
	case netif.PktRERR:
		r.handleRERR(&f.Payload)
	case netif.PktData:
		r.handleData(&f.Payload)
	case netif.PktBcast:
		r.bcast.Handle(f.Src, &f.Payload)
	default:
		// Unreachable from input: every node runs the scenario's one router, so frames carry only its kinds.
		panic(fmt.Sprintf("dsr: unknown packet kind %d", f.Payload.Kind))
	}
}

func (r *Router) handleRREQ(rx *netif.Packet) {
	if rx.Origin == r.ID() {
		return
	}
	if r.seenRREQ.Mark(route.Key{Origin: rx.Origin, ID: rx.ID}) {
		r.Count.DupHits++
		return
	}
	// Learn the reverse route from the accumulated path.
	r.learnRoute(rx.Origin, r.reversed(rx.Path))
	if rx.Dst == r.ID() {
		// Answer along the reversed accumulated path; Send copies it.
		p := netif.Packet{Kind: netif.PktRREP, Origin: rx.Origin, Dst: r.ID(), Path: rx.Path}
		r.sendRREP(p, false)
		return
	}
	if rx.TTL <= 1 {
		return
	}
	q := *rx
	q.TTL--
	q.Path = r.through(q.Path)
	r.Count.CtrlRelayed++
	r.Medium.Send(radio.Frame{
		Src: r.ID(), Dst: radio.BroadcastAddr,
		Size: sizeRREQBase + sizePerHop*len(q.Path), Payload: q,
	})
}

// sendRREP moves a route reply one hop backwards along the discovered
// path (Path holds intermediates origin->dst; the reply walks it in
// reverse: Pos counts how many reverse hops were taken).
func (r *Router) sendRREP(p netif.Packet, relay bool) {
	next := p.Origin
	if idx := len(p.Path) - 1 - p.Pos; idx >= 0 {
		next = p.Path[idx]
	}
	if !r.Medium.InRange(r.ID(), next) {
		return // discovery retry handles it
	}
	if relay {
		r.Count.CtrlRelayed++
	} else {
		r.Count.CtrlOrig++
	}
	r.Medium.Send(radio.Frame{
		Src: r.ID(), Dst: next,
		Size: sizeRREPBase + sizePerHop*len(p.Path), Payload: p,
	})
}

func (r *Router) handleRREP(rx *netif.Packet) {
	// Everyone on the way back learns the route to the reply's subject.
	idx := len(rx.Path) - 1 - rx.Pos // our position in the path
	if rx.Origin == r.ID() {
		r.learnRoute(rx.Dst, rx.Path)
		r.completeDiscovery(rx.Dst)
		return
	}
	if idx < 0 || idx >= len(rx.Path) || rx.Path[idx] != r.ID() {
		return // stale or misrouted reply
	}
	r.learnRoute(rx.Dst, rx.Path[idx+1:])
	p := *rx
	p.Pos++
	r.sendRREP(p, true)
}

func (r *Router) handleRERR(rx *netif.Packet) {
	r.dropRoutesVia(rx.BadA, rx.BadB)
	if rx.Origin == r.ID() {
		return
	}
	if rx.Pos < len(rx.Path) && rx.Path[rx.Pos] == r.ID() {
		e := *rx
		e.Pos++
		r.sendRERR(e, true)
	}
}

func (r *Router) handleData(rx *netif.Packet) {
	if rx.Dst == r.ID() {
		// Learn the reverse route from the traversed prefix.
		r.learnRoute(rx.Origin, r.reversed(rx.Path))
		r.DeliverUnicast(rx.Origin, len(rx.Path)+1, rx.Msg)
		return
	}
	if rx.Pos >= len(rx.Path) || rx.Path[rx.Pos] != r.ID() {
		r.Count.DataDropped++
		return // not ours; stale source route
	}
	pkt := *rx
	pkt.Pos++
	r.forward(pkt)
}

// reversed returns path back-to-front in the router's path scratch.
// The view is only valid until the scratch is next used; every caller
// hands it straight to learnRoute, which copies what it keeps.
func (r *Router) reversed(path []int) []int {
	out := r.pathScratch[:0]
	for i := len(path) - 1; i >= 0; i-- {
		out = append(out, path[i])
	}
	r.pathScratch = out
	return out
}
