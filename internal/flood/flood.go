// Package flood implements the strawman network layer: every unicast is
// a TTL-bounded duplicate-suppressed flood that only the destination
// delivers. It is the "no routing protocol" baseline for the routing
// sweep — maximal robustness, maximal cost — and doubles as a reference
// implementation against which the on-demand protocols' savings are
// measured.
package flood

import (
	"fmt"

	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
)

const (
	sizeHdr = 12
)

// Frames travel as netif.Packet values (no per-hop boxing). Flooded
// unicasts are PktData packets (Origin, ID for duplicate suppression,
// Dst, TTL, HopCount, Size, Msg) that only Dst delivers; controlled
// broadcasts are the shared PktBcast carrier.

// Config tunes the flooding layer.
type Config struct {
	UnicastTTL int               // hop budget for unicast floods
	Seen       route.CacheConfig // duplicate suppression of both floods
}

// DefaultConfig matches the other substrates' reach.
func DefaultConfig() Config {
	return Config{UnicastTTL: 20, Seen: route.DefaultCacheConfig()}
}

// Router is the per-node flooding instance; it satisfies netif.Protocol.
type Router struct {
	*route.Core
	cfg    Config
	bcast  *route.Bcaster
	seen   *route.DupCache
	nextID uint32
}

var _ netif.Protocol = (*Router)(nil)

// NewRouter creates the flooding layer for node id.
func NewRouter(id int, pl *route.Plane, cfg Config) *Router {
	core := route.NewCore(id, pl)
	r := &Router{
		Core:  core,
		cfg:   cfg,
		bcast: route.NewBcaster(core, sizeHdr, 0, cfg.Seen, true),
		seen:  route.NewDupCache(core, netif.PktData, cfg.Seen),
	}
	core.Route = r.routeData
	return r
}

// routeData floods payload with the unicast TTL; only dst delivers it.
// Flooding gets no failure feedback: OnSendFailed fires only for the
// sends route.Core fails itself, and silence is the usual failure mode.
func (r *Router) routeData(dst, size int, payload netif.Msg) {
	r.nextID++
	pkt := netif.Packet{Kind: netif.PktData, Origin: r.ID(), ID: r.nextID, Dst: dst, TTL: r.cfg.UnicastTTL, Size: size, Msg: payload}
	r.seen.Mark(route.Key{Origin: r.ID(), ID: pkt.ID})
	r.Medium.Send(radio.Frame{Src: r.ID(), Dst: radio.BroadcastAddr, Size: pkt.Size + sizeHdr, Payload: pkt})
}

// HandleFrame is the radio receive callback. The frame is the medium's
// shared copy (radio.Receiver): the handlers only read through the
// pointer and copy the packet once they know they will relay it.
func (r *Router) HandleFrame(f *radio.Frame) {
	switch f.Payload.Kind {
	case netif.PktBcast:
		r.bcast.Handle(f.Src, &f.Payload)
	case netif.PktData:
		r.handleUnicast(&f.Payload)
	default:
		// Unreachable from input: every node runs the scenario's one router, so frames carry only its kinds.
		panic(fmt.Sprintf("flood: unknown packet kind %d", f.Payload.Kind))
	}
}

func (r *Router) handleUnicast(rx *netif.Packet) {
	if rx.Origin == r.ID() {
		return
	}
	if r.seen.Mark(route.Key{Origin: rx.Origin, ID: rx.ID}) {
		r.Count.DupHits++
		return
	}
	hops := rx.HopCount + 1
	if rx.Dst == r.ID() {
		r.DeliverUnicast(rx.Origin, hops, rx.Msg)
		return // the destination need not keep relaying
	}
	if rx.TTL > 1 {
		pkt := *rx
		pkt.HopCount = hops
		pkt.TTL--
		r.Count.DataForwarded++
		r.Medium.Send(radio.Frame{Src: r.ID(), Dst: radio.BroadcastAddr, Size: pkt.Size + sizeHdr, Payload: pkt})
	}
}
