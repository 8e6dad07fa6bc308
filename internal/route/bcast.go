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
	core  *Core
	med   *radio.Medium
	cache *DupCache

	// HdrSize is the broadcast framing overhead added to the payload
	// size; PerHop is the additional per-recorded-hop overhead (DSR's
	// 4 bytes per path entry, 0 elsewhere).
	hdrSize int
	perHop  int

	// Disable turns off duplicate suppression (the AODV ablation flag):
	// re-arrivals still count as cache hits but are processed anyway.
	Disable bool

	// Accept runs on every first arrival, before delivery: table
	// updates, route learning. It returns the hop count to report
	// upward (DSR derives it from the path). Nil means use b.HopCount.
	Accept func(prev int, b *netif.Packet) int

	// PrepRelay mutates b just before the relay transmission (DSR
	// appends this node to the path here — after delivery, so the
	// reported path excludes the relaying node itself).
	PrepRelay func(b *netif.Packet)

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
// framing overheads and duplicate-cache bounds.
func NewBcaster(core *Core, med *radio.Medium, hdrSize, perHop int, cfg CacheConfig) *Bcaster {
	return &Bcaster{
		core:    core,
		med:     med,
		cache:   NewDupCache(core, cfg),
		hdrSize: hdrSize,
		perHop:  perHop,
	}
}

// Absorbs declares the broadcast's duplicates inert (DupCache.Absorbs).
func (bc *Bcaster) Absorbs() { bc.cache.Absorbs(netif.PktBcast, bc.med) }

// frameSize is the on-air size of b.
func (bc *Bcaster) frameSize(b *netif.Packet) int {
	return b.Size + bc.hdrSize + bc.perHop*len(b.Path)
}

// Originate floods a new broadcast from this node.
func (bc *Bcaster) Originate(ttl, size int, payload netif.Msg, originSeq uint32) {
	bc.nextID++
	b := netif.Packet{
		Kind:      netif.PktBcast,
		Origin:    bc.core.id,
		OriginSeq: originSeq,
		ID:        bc.nextID,
		TTL:       ttl,
		Size:      size,
		Msg:       payload,
	}
	bc.cache.Mark(Key{Origin: b.Origin, ID: b.ID})
	bc.core.Count.BcastOrig++
	bc.med.Send(radio.Frame{Src: bc.core.id, Dst: radio.BroadcastAddr, Size: bc.frameSize(&b), Payload: b})
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
		if !bc.Disable {
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
	bc.med.Send(radio.Frame{Src: bc.core.id, Dst: radio.BroadcastAddr, Size: bc.frameSize(p), Payload: *p})
}
