package route

import (
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
)

// Bcaster is the paper's controlled broadcast (§5/§7): a TTL-limited
// flood where each node relays a given (origin, id) at most once,
// enforced by a duplicate cache. The four protocols differ only in
// framing overhead and in small per-hop side effects, which plug in as
// hooks; the relay discipline itself lives here exactly once.
//
// Broadcast frames are netif.Packet values of Kind PktBcast; the
// protocol-specific extras ride in the shared fields (OriginSeq for
// AODV's table piggyback, Path for DSR's route accumulation).
type Bcaster struct {
	core     *Core
	cache    *DupCache
	suppress bool

	// HdrSize is the broadcast framing overhead added to the payload
	// size; PerHop is the additional per-recorded-hop overhead (DSR's
	// 4 bytes per path entry, 0 elsewhere).
	hdrSize int
	perHop  int

	// Accept runs on every first arrival, before delivery: table
	// updates, route learning. It returns the hop count to report
	// upward (DSR derives it from the path). Nil means use b.HopCount.
	Accept func(prev int, b *netif.Packet) int

	// PrepRelay mutates b just before the relay transmission (DSR
	// appends this node to the path here — after delivery, so the
	// reported path excludes the relaying node itself).
	PrepRelay func(b *netif.Packet)

	// Stamp returns the OriginSeq a broadcast this node originates
	// carries (AODV's sequence number, which relays learn the route back
	// with). Nil stamps 0.
	Stamp func() uint32

	nextID uint32

	// scratch is this node's private copy of an accepted broadcast: the
	// arriving packet is the medium's shared, read-only frame, so Handle
	// copies it here — after the duplicate test, so only first arrivals
	// pay for the copy — before mutating it and handing it to the hooks.
	// A struct field instead of a local keeps the packet from escaping to
	// the heap at every relay (the hooks take a pointer); safe because
	// frame deliveries never nest — a Send from inside a delivery hook is
	// queued, not delivered synchronously (the conformance suite pins
	// this).
	scratch netif.Packet
}

// NewBcaster creates the broadcast relay for core's node with the given
// framing overheads and duplicate-cache bounds; it is the one
// core.Broadcast originates on. Without suppress (the AODV ablation
// flag) re-arrivals still count as cache hits but are processed anyway,
// so its cache declares no frame kind.
func NewBcaster(core *Core, hdrSize, perHop int, cfg CacheConfig, suppress bool) *Bcaster {
	kind := netif.PktNone
	if suppress {
		kind = netif.PktBcast
	}
	bc := &Bcaster{core: core, cache: NewDupCache(core, kind, cfg), suppress: suppress,
		hdrSize: hdrSize, perHop: perHop}
	core.bcast = bc
	return bc
}

// frameSize is the on-air size of b.
func (bc *Bcaster) frameSize(b *netif.Packet) int {
	return b.Size + bc.hdrSize + bc.perHop*len(b.Path)
}

// Originate floods a new broadcast from this node.
func (bc *Bcaster) Originate(ttl, size int, payload netif.Msg) {
	bc.nextID++
	b := netif.Packet{
		Kind:   netif.PktBcast,
		Origin: bc.core.id,
		ID:     bc.nextID,
		TTL:    ttl,
		Size:   size,
		Msg:    payload,
	}
	if bc.Stamp != nil {
		b.OriginSeq = bc.Stamp()
	}
	bc.cache.Mark(Key{Origin: b.Origin, ID: b.ID})
	bc.core.Count.BcastOrig++
	bc.core.Medium.Send(radio.Frame{Src: bc.core.id, Dst: radio.BroadcastAddr, Size: bc.frameSize(&b), Payload: b})
}

// Handle processes a broadcast arrival from neighbor prev: suppress
// duplicates, deliver upward, relay while TTL remains. b is the shared
// received frame's packet and is only read.
func (bc *Bcaster) Handle(prev int, b *netif.Packet) {
	if b.Origin == bc.core.id {
		return
	}
	if bc.cache.Mark(Key{Origin: b.Origin, ID: b.ID}) {
		bc.core.Count.DupHits++
		if bc.suppress {
			return
		}
	}
	bc.scratch = *b
	p := &bc.scratch
	p.HopCount++
	hops := p.HopCount
	if bc.Accept != nil {
		hops = bc.Accept(prev, p)
	}
	bc.core.DeliverBroadcast(p.Origin, hops, p.Msg)
	if p.TTL <= 1 {
		return
	}
	p.TTL--
	bc.core.Count.BcastRelayed++
	if bc.PrepRelay != nil {
		bc.PrepRelay(p)
	}
	bc.core.Medium.Send(radio.Frame{Src: bc.core.id, Dst: radio.BroadcastAddr, Size: bc.frameSize(p), Payload: *p})
}
