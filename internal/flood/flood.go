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
	"manetp2p/internal/sim"
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
	UnicastTTL       int      // hop budget for unicast floods
	SeenCacheTimeout sim.Time // duplicate suppression window
	SeenCacheCap     int      // a node's duplicate cache holds at most twice this many live entries
}

// DefaultConfig matches the other substrates' reach.
func DefaultConfig() Config {
	return Config{
		UnicastTTL:       20,
		SeenCacheTimeout: 30 * sim.Second,
		SeenCacheCap:     route.DefaultSeenCacheCap,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.UnicastTTL <= 0 {
		c.UnicastTTL = d.UnicastTTL
	}
	if c.SeenCacheTimeout <= 0 {
		c.SeenCacheTimeout = d.SeenCacheTimeout
	}
	if c.SeenCacheCap <= 0 {
		c.SeenCacheCap = d.SeenCacheCap
	}
	return c
}

// Router is the per-node flooding instance; it satisfies netif.Protocol.
type Router struct {
	*route.Core
	med    *radio.Medium
	cfg    Config
	bcast  *route.Bcaster
	seen   *route.DupCache
	nextID uint32
}

var _ netif.Protocol = (*Router)(nil)

// NewRouter creates the flooding layer for node id.
func NewRouter(id int, pl *route.Plane, med *radio.Medium, cfg Config) *Router {
	cfg = cfg.withDefaults()
	core := route.NewCore(id, pl)
	cache := route.CacheConfig{Timeout: cfg.SeenCacheTimeout, HardCap: 2 * cfg.SeenCacheCap}
	return &Router{
		Core:  core,
		med:   med,
		cfg:   cfg,
		bcast: route.NewBcaster(core, med, sizeHdr, 0, cache),
		seen:  route.NewDupCache(core, cache),
	}
}

// Broadcast floods payload within ttl hops.
func (r *Router) Broadcast(ttl, size int, payload netif.Msg) {
	if ttl <= 0 {
		// Unreachable from input: overlay TTLs are NHopsBasic >= 1 (Params.Validate), a nonzero ring radius or randhops >= 1.
		panic("flood: Broadcast with non-positive TTL")
	}
	if !r.med.Up(r.ID()) {
		return
	}
	r.bcast.Originate(ttl, size, payload, 0)
}

// Send floods payload with the unicast TTL; only dst delivers it.
// Flooding gets no failure feedback, so OnSendFailed only fires for
// sends from a down node — silence is the usual failure mode.
func (r *Router) Send(dst, size int, payload netif.Msg) {
	if dst == r.ID() {
		r.SelfDeliver(payload)
		return
	}
	r.Count.DataSent++
	if !r.med.Up(r.ID()) {
		r.FailSend(dst, payload)
		return
	}
	r.nextID++
	pkt := netif.Packet{Kind: netif.PktData, Origin: r.ID(), ID: r.nextID, Dst: dst, TTL: r.cfg.UnicastTTL, Size: size, Msg: payload}
	r.seen.Mark(route.Key{Origin: r.ID(), ID: pkt.ID})
	r.med.Send(radio.Frame{Src: r.ID(), Dst: radio.BroadcastAddr, Size: pkt.Size + sizeHdr, Payload: pkt})
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
		r.med.Send(radio.Frame{Src: r.ID(), Dst: radio.BroadcastAddr, Size: pkt.Size + sizeHdr, Payload: pkt})
	}
}
