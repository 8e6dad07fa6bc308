// Package dsdv implements Destination-Sequenced Distance Vector
// routing (Perkins/Bhagwat), the proactive member of the classic MANET
// routing trio. Every node periodically advertises its full routing
// table to its radio neighbors; destination-generated even sequence
// numbers keep the vectors loop-free, and odd sequence numbers mark
// broken routes. Unlike the on-demand protocols, DSDV pays a constant
// background overhead but answers "do I have a route?" instantly —
// the trade-off the routing sweep quantifies. A node's table holds one
// row per destination, indexed by node id, and is advertised in id
// order.
package dsdv

import (
	"fmt"

	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

const (
	sizeUpdateBase = 8
	sizePerEntry   = 12
	sizeDataHdr    = 16
	sizeBcastHdr   = 16
	infinityMetric = 1 << 16
)

// Frames travel as netif.Packet values (no per-hop boxing). DSDV uses:
//
//   - PktUpdate: Origin (the advertising neighbor), Entries (the
//     advertised routes).
//   - PktData: Origin, Dst, HopCount, TTL, Size, Msg.
//   - PktBcast: the shared route.Bcaster carrier.

// updateSize is the on-air size of an advertisement with n entries.
func updateSize(n int) int { return sizeUpdateBase + sizePerEntry*n }

// tableRow is one routing-table entry. A row, once known, stays in the
// table: a broken route keeps its row at infinite metric.
type tableRow struct {
	nextHop int
	metric  int
	seq     uint32
	heard   sim.Time // last time this route was confirmed
	known   bool
}

// Config tunes the DSDV layer.
type Config struct {
	UpdatePeriod sim.Time          // full-dump advertisement interval
	RouteTimeout sim.Time          // routes unconfirmed for this long break
	SettlingTime sim.Time          // how long data waits for a route to appear
	Seen         route.CacheConfig // broadcast duplicate suppression
	DataTTL      int
	BufferCap    int
}

// DefaultConfig mirrors the published DSDV parameters scaled to the
// paper's mobility (updates every 15 s, routes stale after 45 s).
func DefaultConfig() Config {
	return Config{
		UpdatePeriod: 15 * sim.Second,
		RouteTimeout: 45 * sim.Second,
		SettlingTime: 20 * sim.Second,
		Seen:         route.DefaultCacheConfig(),
		DataTTL:      30,
		BufferCap:    16,
	}
}

// waiting is a packet parked until a route settles.
type waiting struct {
	pkt     netif.Packet
	expires sim.Time
}

// Router is the per-node DSDV instance; it satisfies netif.Protocol.
// The shared control-plane mechanics come from internal/route; this
// file is the distance-vector state machine proper.
type Router struct {
	*route.Core
	cfg Config

	table  []tableRow // by destination id
	rows   int        // known rows of table
	seq    uint32     // own destination sequence number (even)
	bcast  *route.Bcaster
	parked *route.Pending[waiting]
	ticker *sim.Ticker

	// entries is the scratch an advertisement is built in; the medium
	// copies it on Send, so the next advertisement reuses it.
	entries []netif.AdvEntry
	// lapsed holds the payloads expireParked abandons until it reports them.
	lapsed []netif.Msg
}

var _ netif.Protocol = (*Router)(nil)

// NewRouter creates the DSDV layer for node id and starts its periodic
// advertisements.
func NewRouter(id int, pl *route.Plane, cfg Config) *Router {
	core := route.NewCore(id, pl)
	r := &Router{
		Core:   core,
		cfg:    cfg,
		table:  make([]tableRow, core.Medium.NumNodes()),
		bcast:  route.NewBcaster(core, sizeBcastHdr, 0, cfg.Seen, true),
		parked: route.NewPending[waiting](core, cfg.BufferCap),
	}
	core.Route = r.routeData
	// Stagger first advertisements by node id so a freshly built network
	// does not emit all dumps in the same microsecond.
	first := r.cfg.UpdatePeriod/64*sim.Time(id%64) + sim.Millisecond
	r.Sim.ScheduleArg(first, startAdvertising, sim.Arg{X: r})
	return r
}

// startAdvertising sends router X's first dump and starts the periodic
// ones.
func startAdvertising(a sim.Arg) {
	r := a.X.(*Router)
	r.advertise()
	r.ticker = sim.NewTicker(r.Sim, r.cfg.UpdatePeriod, r.advertise)
}

// HopsTo reports the table's metric for dst.
func (r *Router) HopsTo(dst int) (int, bool) {
	rt, ok := r.valid(dst)
	if !ok {
		return 0, false
	}
	return rt.metric, true
}

func (r *Router) valid(dst int) (*tableRow, bool) {
	rt := &r.table[dst]
	if !rt.known || rt.metric >= infinityMetric || r.Sim.Now()-rt.heard > r.cfg.RouteTimeout {
		return rt, false
	}
	return rt, true
}

// advertise broadcasts the full table to radio neighbors (single hop).
func (r *Router) advertise() {
	if !r.Medium.Up(r.ID()) {
		return
	}
	r.expireStale()
	r.seq += 2
	// Built in the router's scratch: Send copies the entries into the
	// medium's storage for the frame, so the next advertisement may
	// overwrite them before this one's receptions arrive.
	entries := append(r.entries[:0], netif.AdvEntry{Dst: r.ID(), Metric: 0, Seq: r.seq})
	for dst, rt := range r.table {
		if rt.known {
			entries = append(entries, netif.AdvEntry{Dst: dst, Metric: rt.metric, Seq: rt.seq})
		}
	}
	r.entries = entries
	u := netif.Packet{Kind: netif.PktUpdate, Origin: r.ID(), Entries: entries}
	r.Count.CtrlOrig++
	r.Medium.Send(radio.Frame{Src: r.ID(), Dst: radio.BroadcastAddr, Size: updateSize(len(entries)), Payload: u})
}

// expireStale marks routes unheard within the timeout as broken (odd
// sequence number, infinite metric), DSDV's substitute for link-layer
// feedback.
func (r *Router) expireStale() {
	now := r.Sim.Now()
	for i := range r.table {
		rt := &r.table[i]
		if rt.known && rt.metric < infinityMetric && now-rt.heard > r.cfg.RouteTimeout {
			rt.metric = infinityMetric
			rt.seq++ // odd: destination did not generate this
		}
	}
}

// handleUpdate merges a neighbor's advertisement; u is only read.
func (r *Router) handleUpdate(u *netif.Packet) {
	now := r.Sim.Now()
	for _, e := range u.Entries {
		if e.Dst == r.ID() {
			continue
		}
		metric := e.Metric + 1
		if e.Metric >= infinityMetric {
			metric = infinityMetric
		}
		rt := &r.table[e.Dst]
		if !rt.known {
			if metric < infinityMetric {
				*rt = tableRow{nextHop: u.Origin, metric: metric, seq: e.Seq, heard: now, known: true}
				r.rows++
				r.unpark(e.Dst)
			}
			continue
		}
		newer := seqGreater(e.Seq, rt.seq)
		better := e.Seq == rt.seq && metric < rt.metric
		sameRoute := rt.nextHop == u.Origin
		switch {
		case newer, better:
			rt.nextHop = u.Origin
			rt.metric = metric
			rt.seq = e.Seq
			rt.heard = now
			if metric < infinityMetric {
				r.unpark(e.Dst)
			}
		case sameRoute && e.Seq == rt.seq:
			rt.heard = now // our current route reconfirmed
		}
	}
}

// seqGreater compares sequence numbers with wraparound.
func seqGreater(a, b uint32) bool { return int32(a-b) > 0 }

// routeData routes payload to dst; with no route it parks the packet
// for the settling time (proactive protocols have no discovery to kick).
func (r *Router) routeData(dst, size int, payload netif.Msg) {
	pkt := netif.Packet{Kind: netif.PktData, Origin: r.ID(), Dst: dst, TTL: r.cfg.DataTTL, Size: size, Msg: payload}
	if _, ok := r.valid(dst); ok {
		r.forward(pkt)
		return
	}
	r.park(pkt)
}

// park holds a packet hoping an advertisement brings a route.
func (r *Router) park(pkt netif.Packet) {
	d, ok := r.parked.Get(pkt.Dst)
	if !ok {
		d = r.parked.Start(pkt.Dst)
	}
	w := waiting{pkt: pkt, expires: r.Sim.Now() + r.cfg.SettlingTime}
	if !r.parked.Push(d, w) {
		r.Count.DataDropped++
		r.FailSend(pkt.Dst, pkt.Msg)
		return
	}
	r.Sim.ScheduleArg(r.cfg.SettlingTime+sim.Millisecond, expireParked, sim.Arg{I0: pkt.Dst, X: r})
}

// expireParked fails router X's packets for I0 whose settling window
// lapsed routeless. It settles the buffer before reporting them: a hook
// that sends to dst again parks the new packet in it, or in a fresh
// entry.
func expireParked(a sim.Arg) {
	r, dst := a.X.(*Router), a.I0
	d, ok := r.parked.Get(dst)
	if !ok || len(d.Queue) == 0 {
		return
	}
	now := r.Sim.Now()
	keep, lapsed := d.Queue[:0], r.lapsed[:0]
	for _, w := range d.Queue {
		if w.expires <= now {
			lapsed = append(lapsed, w.pkt.Msg)
			continue
		}
		keep = append(keep, w)
	}
	r.lapsed = lapsed
	if len(keep) == 0 {
		r.parked.Take(dst)
		r.parked.Recycle(d)
	} else {
		d.Queue = keep
	}
	for _, m := range lapsed {
		r.Count.DataDropped++
		r.FailSend(dst, m)
	}
}

// unpark flushes parked packets once a route to dst appears.
func (r *Router) unpark(dst int) {
	d, ok := r.parked.Get(dst)
	if !ok || len(d.Queue) == 0 {
		return
	}
	r.parked.Take(dst)
	for _, w := range d.Queue {
		r.forward(w.pkt)
	}
	r.parked.Recycle(d)
}

// forward moves a packet one hop along the table.
func (r *Router) forward(pkt netif.Packet) {
	rt, ok := r.valid(pkt.Dst)
	if !ok {
		if pkt.Origin == r.ID() {
			r.park(pkt)
		} else {
			r.Count.DataDropped++
		}
		return
	}
	if !r.Medium.InRange(r.ID(), rt.nextHop) {
		// Link gone: break the route now rather than at the next timeout.
		rt.metric = infinityMetric
		rt.seq++
		if pkt.Origin == r.ID() {
			r.park(pkt)
		} else {
			r.Count.DataDropped++
		}
		return
	}
	if pkt.Origin != r.ID() {
		r.Count.DataForwarded++
	}
	r.Medium.Send(radio.Frame{Src: r.ID(), Dst: rt.nextHop, Size: pkt.Size + sizeDataHdr, Payload: pkt})
}

// HandleFrame dispatches radio arrivals on packet kind. The frame is the
// medium's shared copy (radio.Receiver): the handlers only read through
// the pointer and copy the packet once they know they will relay it.
func (r *Router) HandleFrame(f *radio.Frame) {
	switch f.Payload.Kind {
	case netif.PktUpdate:
		r.handleUpdate(&f.Payload)
	case netif.PktData:
		r.handleData(&f.Payload)
	case netif.PktBcast:
		r.bcast.Handle(f.Src, &f.Payload)
	default:
		// Unreachable from input: every node runs the scenario's one router, so frames carry only its kinds.
		panic(fmt.Sprintf("dsdv: unknown packet kind %d", f.Payload.Kind))
	}
}

func (r *Router) handleData(rx *netif.Packet) {
	if rx.Dst == r.ID() {
		r.DeliverUnicast(rx.Origin, rx.HopCount+1, rx.Msg)
		return
	}
	if rx.TTL <= 1 {
		r.Count.DataDropped++
		return
	}
	pkt := *rx
	pkt.HopCount++
	pkt.TTL--
	r.forward(pkt)
}
