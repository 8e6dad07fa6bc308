// Package dsr implements Dynamic Source Routing, the second on-demand
// protocol from the routing comparison the paper bases its AODV choice
// on ([13] in the paper; Johnson/Maltz's DSR). Routes are discovered by
// flooding route requests that accumulate the traversed path; data
// packets carry their complete source route, so relays keep no routing
// state but headers grow with path length — the classic DSR trade-off
// this reproduction's routing sweep exposes.
package dsr

import (
	"fmt"
	"sort"

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

// cachedRoute is one known source route.
type cachedRoute struct {
	path    []int // intermediate hops, self -> dst
	expires sim.Time
}

// Config tunes the DSR layer. Zero fields take defaults.
type Config struct {
	RouteLifetime       sim.Time
	SeenCacheTimeout    sim.Time
	SeenCacheCap        int // a node's duplicate cache holds at most twice this many live entries
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
		SeenCacheTimeout:    30 * sim.Second,
		SeenCacheCap:        route.DefaultSeenCacheCap,
		MaxDiscoveryRetries: 2,
		DiscoveryTTL:        20,
		HopTraversal:        10 * sim.Millisecond,
		BufferCap:           16,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.RouteLifetime <= 0 {
		c.RouteLifetime = d.RouteLifetime
	}
	if c.SeenCacheTimeout <= 0 {
		c.SeenCacheTimeout = d.SeenCacheTimeout
	}
	if c.SeenCacheCap <= 0 {
		c.SeenCacheCap = d.SeenCacheCap
	}
	if c.MaxDiscoveryRetries <= 0 {
		c.MaxDiscoveryRetries = d.MaxDiscoveryRetries
	}
	if c.DiscoveryTTL <= 0 {
		c.DiscoveryTTL = d.DiscoveryTTL
	}
	if c.HopTraversal <= 0 {
		c.HopTraversal = d.HopTraversal
	}
	if c.BufferCap <= 0 {
		c.BufferCap = d.BufferCap
	}
	return c
}

// Router is the per-node DSR instance; it satisfies netif.Protocol. The
// shared control-plane mechanics come from internal/route; this file is
// the source-routing state machine proper.
type Router struct {
	*route.Core
	sim *sim.Sim
	med *radio.Medium
	cfg Config

	cache    map[int]cachedRoute
	rreqID   uint32
	seenRREQ *route.DupCache
	bcast    *route.Bcaster
	pending  *route.Pending[netif.Packet]

	// Reversal scratch for route learning: every learnRoute caller
	// copies, so the reversed view can live in one reused buffer.
	revScratch []int

	// Callback for the typed scheduling API, bound once at construction
	// so the hot paths schedule without a per-call closure allocation.
	discTimeoutFn func(sim.Arg)
}

var _ netif.Protocol = (*Router)(nil)

// NewRouter creates the DSR layer for node id; pass HandleFrame as the
// node's radio receiver.
func NewRouter(id int, pl *route.Plane, med *radio.Medium, cfg Config) *Router {
	cfg = cfg.withDefaults()
	core := route.NewCore(id, pl)
	cache := route.CacheConfig{Timeout: cfg.SeenCacheTimeout, HardCap: 2 * cfg.SeenCacheCap}
	r := &Router{
		Core:     core,
		sim:      pl.Sim(),
		med:      med,
		cfg:      cfg,
		cache:    make(map[int]cachedRoute),
		seenRREQ: route.NewDupCache(core, cache),
		bcast:    route.NewBcaster(core, med, sizeBcastBase, sizePerHop, cache),
		pending:  route.NewPending[netif.Packet](cfg.BufferCap),
	}
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
	b.Path = append(append([]int(nil), b.Path...), r.ID())
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
	cr, ok := r.cache[dst]
	if !ok || cr.expires < r.sim.Now() {
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
	now := r.sim.Now()
	if old, ok := r.cache[dst]; ok && old.expires >= now && len(old.path) < len(path) {
		return
	}
	cp := append([]int(nil), path...)
	r.cache[dst] = cachedRoute{path: cp, expires: now + r.cfg.RouteLifetime}
	// Prefix routes come for free.
	for i, h := range cp {
		if old, ok := r.cache[h]; ok && old.expires >= now && len(old.path) <= i {
			continue
		}
		r.cache[h] = cachedRoute{path: append([]int(nil), cp[:i]...), expires: now + r.cfg.RouteLifetime}
	}
}

// dropRoutesVia removes every cached route using the directed link a->b.
func (r *Router) dropRoutesVia(a, b int) {
	var doomed []int
	for dst, cr := range r.cache {
		full := append(append([]int{r.ID()}, cr.path...), dst)
		for i := 0; i+1 < len(full); i++ {
			if full[i] == a && full[i+1] == b {
				doomed = append(doomed, dst)
				break
			}
		}
	}
	sort.Ints(doomed)
	for _, dst := range doomed {
		delete(r.cache, dst)
	}
}

// Broadcast floods payload within ttl hops, with duplicate suppression
// and path accumulation.
func (r *Router) Broadcast(ttl, size int, payload netif.Msg) {
	if ttl <= 0 {
		// Unreachable from input: overlay TTLs are NHopsBasic >= 1 (Params.Validate), a nonzero ring radius or randhops >= 1.
		panic("dsr: Broadcast with non-positive TTL")
	}
	if !r.med.Up(r.ID()) {
		return
	}
	r.bcast.Originate(ttl, size, payload, 0)
}

// Send routes payload to dst, discovering a source route on demand.
func (r *Router) Send(dst, size int, payload netif.Msg) {
	if dst == r.ID() {
		r.SelfDeliver(payload)
		return
	}
	r.Count.DataSent++
	if !r.med.Up(r.ID()) {
		return
	}
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
	r.med.Send(radio.Frame{Src: r.ID(), Dst: radio.BroadcastAddr, Size: sizeRREQBase, Payload: q})
	wait := 2 * sim.Time(r.cfg.DiscoveryTTL) * r.cfg.HopTraversal
	d.Timer = r.sim.ScheduleArg(wait, r.discTimeoutFn, sim.Arg{I0: dst, X: d})
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
		r.pending.Drop(dst)
		r.Count.DiscoverFailed++
		for _, pkt := range d.Queue {
			r.Count.DataDropped++
			r.FailSend(dst, pkt.Msg)
		}
		return
	}
	r.sendRREQ(dst, d)
}

func (r *Router) completeDiscovery(dst int) {
	d, ok := r.pending.Get(dst)
	if !ok {
		return
	}
	cr, haveRoute := r.route(dst)
	if !haveRoute {
		return
	}
	r.pending.Drop(dst)
	d.Timer.Cancel()
	for _, pkt := range d.Queue {
		pkt.Path = cr.path
		pkt.Pos = 0
		r.forward(pkt)
	}
}

// forward transmits pkt to its next source-route hop, raising RERR on a
// broken link.
func (r *Router) forward(pkt netif.Packet) {
	next := pkt.Dst
	if pkt.Pos < len(pkt.Path) {
		next = pkt.Path[pkt.Pos]
	}
	if !r.med.InRange(r.ID(), next) {
		r.linkBroken(pkt.Origin, r.ID(), next, pkt.Path, pkt.Pos)
		if pkt.Origin == r.ID() {
			delete(r.cache, pkt.Dst)
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
	r.med.Send(radio.Frame{Src: r.ID(), Dst: next, Size: size, Payload: pkt})
}

// linkBroken drops local routes over the dead link and notifies the
// packet origin along the reversed traversed prefix.
func (r *Router) linkBroken(origin, a, b int, path []int, pos int) {
	r.dropRoutesVia(a, b)
	if origin == r.ID() {
		return
	}
	// Reversed prefix back to the origin: the hops before us, reversed.
	prefix := make([]int, 0, pos)
	for i := pos - 1; i >= 0; i-- {
		if path[i] != r.ID() {
			prefix = append(prefix, path[i])
		}
	}
	e := netif.Packet{Kind: netif.PktRERR, Origin: origin, BadA: a, BadB: b, Path: prefix}
	r.sendRERR(e, false)
}

func (r *Router) sendRERR(e netif.Packet, relay bool) {
	next := e.Origin
	if e.Pos < len(e.Path) {
		next = e.Path[e.Pos]
	}
	if !r.med.InRange(r.ID(), next) {
		return // best-effort; the origin's own retry will discover
	}
	if relay {
		r.Count.CtrlRelayed++
	} else {
		r.Count.CtrlOrig++
	}
	r.med.Send(radio.Frame{Src: r.ID(), Dst: next, Size: sizeRERR + sizePerHop*len(e.Path), Payload: e})
}

// HandleFrame dispatches radio arrivals on packet kind. The frame is the
// medium's shared copy (radio.Receiver): the handlers only read through
// the pointer — Path included — and copy the packet once they know they
// will relay it.
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
		// Answer along the reversed accumulated path.
		p := netif.Packet{Kind: netif.PktRREP, Origin: rx.Origin, Dst: r.ID(), Path: append([]int(nil), rx.Path...)}
		r.sendRREP(p, false)
		return
	}
	if rx.TTL <= 1 {
		return
	}
	q := *rx
	q.TTL--
	q.Path = append(append([]int(nil), q.Path...), r.ID())
	r.Count.CtrlRelayed++
	r.med.Send(radio.Frame{
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
	if !r.med.InRange(r.ID(), next) {
		return // discovery retry handles it
	}
	if relay {
		r.Count.CtrlRelayed++
	} else {
		r.Count.CtrlOrig++
	}
	r.med.Send(radio.Frame{
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

// reversed returns path back-to-front in the router's reusable scratch
// buffer. The view is only valid until the next call; every caller
// hands it straight to learnRoute, which copies what it keeps.
func (r *Router) reversed(path []int) []int {
	out := r.revScratch[:0]
	for i := len(path) - 1; i >= 0; i-- {
		out = append(out, path[i])
	}
	r.revScratch = out
	return out
}
