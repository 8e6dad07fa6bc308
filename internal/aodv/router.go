package aodv

import (
	"fmt"

	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// The router implements the pluggable network-layer interface.
var _ netif.Protocol = (*Router)(nil)

// Config tunes the routing layer; start from DefaultConfig.
type Config struct {
	ActiveRouteTimeout  sim.Time          // lifetime of an unused route
	Seen                route.CacheConfig // duplicate suppression of floods
	MaxDiscoveryRetries int               // extra network-wide RREQ attempts
	TTLStart            int               // first expanding-ring radius
	TTLIncrement        int               // ring growth per attempt
	TTLMax              int               // network-wide search radius
	HopTraversal        sim.Time          // per-hop time budget for discovery timers
	DataTTL             int               // hop budget for data packets
	BufferCap           int               // packets buffered per pending discovery

	// DisableBcastDupCache turns off the controlled broadcast's
	// duplicate suppression — the ablation of the paper's §7 ns-2
	// modification. With it off, every received copy of a flood is
	// re-forwarded (TTL-bounded broadcast storm).
	DisableBcastDupCache bool
}

// DefaultConfig returns the parameters used by the paper reproduction:
// AODV-draft-flavoured expanding ring over a network whose diameter is
// ~14 hops (100 m arena, 10 m range).
func DefaultConfig() Config {
	return Config{
		// Route staleness mostly manifests as a broken next hop, which
		// the link-layer InRange check catches on use; the timeout only
		// bounds silent staleness, so it can be generous.
		ActiveRouteTimeout:  30 * sim.Second,
		Seen:                route.DefaultCacheConfig(),
		MaxDiscoveryRetries: 2,
		TTLStart:            4,
		TTLIncrement:        4,
		TTLMax:              20,
		HopTraversal:        10 * sim.Millisecond,
		DataTTL:             30,
		BufferCap:           16,
	}
}

// Delivery is an upper-layer arrival: who originated the message, how
// many ad-hoc hops it traveled, and the payload.
type Delivery = netif.Delivery

// Router is the per-node network layer. It attaches to the shared medium
// as the node's frame receiver and exposes unicast (AODV) and controlled
// broadcast to the layer above. The shared control-plane mechanics —
// dispatch, counters, duplicate caches, the broadcast relay, the
// pending-send buffer — come from internal/route; this file is the AODV
// state machine proper.
type Router struct {
	*route.Core
	cfg Config

	table    *routeTable
	seq      uint32
	rreqID   uint32
	seenRREQ *route.DupCache
	bcast    *route.Bcaster
	pending  *route.Pending[netif.Packet]
}

// NewRouter creates the routing layer for node id on the simulation's
// shared routing plane. The caller must pass r.HandleFrame as the node's
// radio receiver when joining the plane's medium.
func NewRouter(id int, pl *route.Plane, cfg Config) *Router {
	core := route.NewCore(id, pl)
	r := &Router{
		Core:     core,
		cfg:      cfg,
		table:    newRouteTable(core.Medium.NumNodes()),
		seenRREQ: route.NewDupCache(core, netif.PktRREQ, cfg.Seen),
		bcast:    route.NewBcaster(core, sizeBcastHdr, 0, cfg.Seen, !cfg.DisableBcastDupCache),
		pending:  route.NewPending[netif.Packet](core, cfg.BufferCap),
	}
	core.Route = r.routeData
	r.bcast.Accept = r.acceptBcast
	r.bcast.Stamp = r.nextSeq
	return r
}

// HopsTo reports the current route-table distance to dst in ad-hoc hops,
// if a valid route exists. It does not trigger discovery.
func (r *Router) HopsTo(dst int) (int, bool) {
	if _, ok := r.table.get(dst, r.Sim.Now()); !ok {
		return 0, false
	}
	return r.table.hops(dst), true
}

// nextSeq advances and returns this node's sequence number, which its
// RREQs, its RREPs as destination and its broadcasts (Bcaster.Stamp)
// carry.
func (r *Router) nextSeq() uint32 {
	r.seq++
	return r.seq
}

// acceptBcast is the per-hop side effect of the controlled broadcast:
// like an RREQ, a broadcast teaches relays the way back to its origin,
// so responders can reply by unicast immediately.
func (r *Router) acceptBcast(prev int, b *netif.Packet) int {
	now := r.Sim.Now()
	r.table.update(b.Origin, prev, b.HopCount, b.OriginSeq, true, now, r.cfg.ActiveRouteTimeout)
	if prev != b.Origin {
		r.table.update(prev, prev, 1, 0, false, now, r.cfg.ActiveRouteTimeout)
	}
	return b.HopCount
}

// routeData routes an application payload to dst, discovering a route
// on demand.
func (r *Router) routeData(dst, size int, payload netif.Msg) {
	pkt := netif.Packet{Kind: netif.PktData, Origin: r.ID(), Dst: dst, HopCount: 0, TTL: r.cfg.DataTTL, Size: size, Msg: payload}
	if _, ok := r.table.get(dst, r.Sim.Now()); ok {
		r.forwardData(pkt)
		return
	}
	r.enqueue(pkt)
}

// enqueue buffers pkt awaiting a route and kicks discovery if necessary.
// Transit packets (local repair) share the buffer with locally
// originated ones.
func (r *Router) enqueue(pkt netif.Packet) {
	d, inProgress := r.pending.Get(pkt.Dst)
	if !inProgress {
		d = r.pending.Start(pkt.Dst)
		d.TTL = r.cfg.TTLStart
		d.Repair = pkt.Origin != r.ID()
		r.Count.Discoveries++
		r.sendRREQ(pkt.Dst, d)
	} else if pkt.Origin == r.ID() {
		// A locally originated packet upgrades a repair discovery to a
		// full escalating search.
		d.Repair = false
	}
	if !r.pending.Push(d, pkt) {
		r.Count.DataDropped++
		if pkt.Origin == r.ID() {
			r.FailSend(pkt.Dst, pkt.Msg)
		}
	}
}

// sendRREQ emits one ring of the expanding-ring search and arms the
// retry timer. A local repair asks for a route fresher than the one it
// lost (RFC 3561 §6.12): the upstream node still holds that route,
// through the repairer, and answering with it would close a loop.
func (r *Router) sendRREQ(dst int, d *route.Discovery[netif.Packet]) {
	r.rreqID++
	var dstSeq uint32
	if e := r.table.raw(dst); e.haveSeq() {
		dstSeq = e.seq
	}
	if d.Repair {
		dstSeq++
	}
	q := netif.Packet{Kind: netif.PktRREQ, Origin: r.ID(), OriginSeq: r.nextSeq(), ID: r.rreqID, Dst: dst, DstSeq: dstSeq, HopCount: 0, TTL: d.TTL}
	r.seenRREQ.Mark(route.Key{Origin: r.ID(), ID: q.ID})
	r.Count.CtrlOrig++
	r.Medium.Send(radio.Frame{Src: r.ID(), Dst: radio.BroadcastAddr, Size: sizeRREQ, Payload: q})

	wait := 2 * sim.Time(d.TTL) * r.cfg.HopTraversal
	d.Timer = r.Sim.ScheduleArg(wait, discoveryTimeout, sim.Arg{I0: dst, X: r})
}

// discoveryTimeout escalates router X's ring toward I0 or gives up. The
// pending entry is the one that armed it: Take cancels the retry timer
// of every entry it retires.
func discoveryTimeout(a sim.Arg) {
	r, dst := a.X.(*Router), a.I0
	d, _ := r.pending.Get(dst)
	if d.Repair {
		// One bounded attempt only.
		d.Retries = r.cfg.MaxDiscoveryRetries + 1
	} else if d.TTL < r.cfg.TTLMax {
		d.TTL += r.cfg.TTLIncrement
		if d.TTL > r.cfg.TTLMax {
			d.TTL = r.cfg.TTLMax
		}
	} else {
		d.Retries++
	}
	if d.Retries > r.cfg.MaxDiscoveryRetries {
		r.pending.Take(dst)
		r.Count.DiscoverFailed++
		announced := false
		for _, pkt := range d.Queue {
			r.Count.DataDropped++
			if pkt.Origin == r.ID() {
				r.FailSend(dst, pkt.Msg)
			} else if !announced {
				// Failed local repair: tell upstream users of the route.
				r.sendRERRFor(dst, r.Sim.Now())
				announced = true
			}
		}
		r.pending.Recycle(d)
		return
	}
	r.sendRREQ(dst, d)
}

// completeDiscovery flushes packets buffered for dst.
func (r *Router) completeDiscovery(dst int) {
	d, ok := r.pending.Take(dst)
	if !ok {
		return
	}
	for _, pkt := range d.Queue {
		r.forwardData(pkt)
	}
	r.pending.Recycle(d)
}

// forwardData sends pkt one hop along the current route. A missing or
// broken route triggers re-discovery — also for transit packets (AODV's
// local repair, RFC 3561 §6.12): the relay buffers the packet and
// searches for the destination itself rather than dropping.
func (r *Router) forwardData(pkt netif.Packet) {
	now := r.Sim.Now()
	e, ok := r.table.get(pkt.Dst, now)
	if !ok {
		r.enqueue(pkt)
		return
	}
	next := e.nextHop()
	if !r.Medium.InRange(r.ID(), next) {
		// Link-layer feedback: the hop is gone. Tear down everything
		// that used it, tell the neighborhood, then locally repair.
		r.linkBreak(next, now)
		r.enqueue(pkt)
		return
	}
	if pkt.Origin != r.ID() {
		r.Count.DataForwarded++
	}
	r.table.refresh(pkt.Dst, now, r.cfg.ActiveRouteTimeout)
	r.table.refresh(pkt.Origin, now, r.cfg.ActiveRouteTimeout)
	r.Medium.Send(radio.Frame{Src: r.ID(), Dst: next, Size: pkt.Size + sizeDataHdr, Payload: pkt})
}

// linkBreak invalidates all routes through via and broadcasts an RERR.
func (r *Router) linkBreak(via int, now sim.Time) {
	lost := r.RERRScratch()
	*lost = r.table.invalidateVia((*lost)[:0], via, now)
	if len(*lost) == 0 {
		return
	}
	r.emitRERR(*lost, false)
}

// sendRERRFor reports a single unroutable destination.
func (r *Router) sendRERRFor(dst int, now sim.Time) {
	seq, _ := r.table.invalidate(dst, now)
	lost := r.RERRScratch()
	*lost = append((*lost)[:0], netif.Unreachable{Dst: dst, Seq: seq})
	r.emitRERR(*lost, false)
}

func (r *Router) emitRERR(lost []netif.Unreachable, relay bool) {
	if !r.Medium.Up(r.ID()) {
		return
	}
	e := netif.Packet{Kind: netif.PktRERR, Unreachable: lost}
	if relay {
		r.Count.CtrlRelayed++
	} else {
		r.Count.CtrlOrig++
	}
	r.Medium.Send(radio.Frame{Src: r.ID(), Dst: radio.BroadcastAddr, Size: rerrSize(len(lost)), Payload: e})
}

// HandleFrame is the radio receive callback; it dispatches on packet
// kind. The frame is the medium's shared copy (radio.Receiver): the
// handlers only read through the pointer and copy the packet once they
// know they will keep or relay it.
func (r *Router) HandleFrame(f *radio.Frame) {
	switch f.Payload.Kind {
	case netif.PktRREQ:
		r.handleRREQ(f.Src, &f.Payload)
	case netif.PktRREP:
		r.handleRREP(f.Src, &f.Payload)
	case netif.PktRERR:
		r.handleRERR(f.Src, &f.Payload)
	case netif.PktData:
		r.handleData(f.Src, &f.Payload)
	case netif.PktBcast:
		r.bcast.Handle(f.Src, &f.Payload)
	default:
		// Unreachable from input: every node runs the scenario's one router, so frames carry only its kinds.
		panic(fmt.Sprintf("aodv: unknown packet kind %d", f.Payload.Kind))
	}
}

func (r *Router) handleRREQ(prev int, rx *netif.Packet) {
	if rx.Origin == r.ID() {
		return
	}
	if r.seenRREQ.Mark(route.Key{Origin: rx.Origin, ID: rx.ID}) {
		r.Count.DupHits++
		return
	}
	now := r.Sim.Now()
	hops := rx.HopCount + 1
	// Learn/refresh the reverse route to the requester.
	r.table.update(rx.Origin, prev, hops, rx.OriginSeq, true, now, r.cfg.ActiveRouteTimeout)
	if prev != rx.Origin {
		r.table.update(prev, prev, 1, 0, false, now, r.cfg.ActiveRouteTimeout)
	}

	if rx.Dst == r.ID() {
		// We are the destination: answer with our own sequence number.
		if seqGreater(rx.DstSeq, r.seq) {
			r.seq = rx.DstSeq
		}
		r.sendRREP(netif.Packet{Kind: netif.PktRREP, Origin: rx.Origin, Dst: r.ID(), DstSeq: r.nextSeq(), HopCount: 0}, now, false)
		return
	}
	if e, ok := r.table.get(rx.Dst, now); ok && e.haveSeq() && !seqGreater(rx.DstSeq, e.seq) {
		// Intermediate node with a route at least as fresh as requested.
		r.sendRREP(netif.Packet{Kind: netif.PktRREP, Origin: rx.Origin, Dst: rx.Dst, DstSeq: e.seq, HopCount: r.table.hops(rx.Dst)}, now, false)
		return
	}
	if rx.TTL > 1 {
		q := *rx
		q.HopCount = hops
		q.TTL--
		r.Count.CtrlRelayed++
		r.Medium.Send(radio.Frame{Src: r.ID(), Dst: radio.BroadcastAddr, Size: sizeRREQ, Payload: q})
	}
}

// sendRREP unicasts a reply one hop toward the requester.
func (r *Router) sendRREP(p netif.Packet, now sim.Time, relay bool) {
	e, ok := r.table.get(p.Origin, now)
	if !ok || !r.Medium.InRange(r.ID(), e.nextHop()) {
		return // reverse route already gone; the ring will retry
	}
	if relay {
		r.Count.CtrlRelayed++
	} else {
		r.Count.CtrlOrig++
	}
	r.table.refresh(p.Origin, now, r.cfg.ActiveRouteTimeout)
	r.Medium.Send(radio.Frame{Src: r.ID(), Dst: e.nextHop(), Size: sizeRREP, Payload: p})
}

func (r *Router) handleRREP(prev int, rx *netif.Packet) {
	now := r.Sim.Now()
	hops := rx.HopCount + 1
	// Learn the forward route to the replied-for destination.
	r.table.update(rx.Dst, prev, hops, rx.DstSeq, true, now, r.cfg.ActiveRouteTimeout)
	r.table.update(prev, prev, 1, 0, false, now, r.cfg.ActiveRouteTimeout)
	if rx.Origin == r.ID() {
		r.completeDiscovery(rx.Dst)
		return
	}
	p := *rx
	p.HopCount = hops
	r.sendRREP(p, now, true)
}

func (r *Router) handleRERR(prev int, e *netif.Packet) {
	now := r.Sim.Now()
	scratch := r.RERRScratch()
	propagate := (*scratch)[:0]
	for _, u := range e.Unreachable {
		if ent, ok := r.table.get(u.Dst, now); ok && ent.nextHop() == prev {
			seq, was := r.table.invalidate(u.Dst, now)
			if was {
				propagate = append(propagate, netif.Unreachable{Dst: u.Dst, Seq: seq})
			}
		}
	}
	*scratch = propagate
	if len(propagate) > 0 {
		r.emitRERR(propagate, true)
	}
}

func (r *Router) handleData(prev int, rx *netif.Packet) {
	now := r.Sim.Now()
	hops := rx.HopCount + 1
	// Path accumulation: we now know a route back to the packet origin.
	r.table.update(rx.Origin, prev, hops, 0, false, now, r.cfg.ActiveRouteTimeout)
	r.table.update(prev, prev, 1, 0, false, now, r.cfg.ActiveRouteTimeout)
	if rx.Dst == r.ID() {
		r.DeliverUnicast(rx.Origin, hops, rx.Msg)
		return
	}
	if rx.TTL <= 1 {
		r.Count.DataDropped++
		return
	}
	pkt := *rx
	pkt.HopCount = hops
	pkt.TTL--
	r.forwardData(pkt)
}
