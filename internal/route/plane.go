package route

import (
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/sim"
)

// Plane is the routing state one simulation's nodes share: the clock,
// the medium, one duplicate index per cache family, the free lists of
// recycled discoveries (NewPending) and the RERR scratch. Whoever
// builds a network creates one Plane and hands it to every node's
// router constructor; nothing in it is package-level, so concurrent
// replications share nothing.
type Plane struct {
	sim    *sim.Sim
	med    *radio.Medium
	dups   []*dupIndex
	absorb [netif.NumPacketKinds]*dupIndex // per frame kind, the family declared for it
	pools  []any                           // one *[]*Discovery[P] per queued type P
	rerr   []netif.Unreachable             // Core.RERRScratch
}

// NewPlane creates the shared routing state for the simulation of med's
// nodes and installs on med its answer to which receptions only count a
// duplicate, from the caches declared for their frame kinds (NewDupCache).
func NewPlane(s *sim.Sim, med *radio.Medium) *Plane {
	p := &Plane{sim: s, med: med}
	med.SetAbsorber(p.inert)
	return p
}

// dupIndex returns the index of the family (ord, cfg), creating it on
// first use.
func (p *Plane) dupIndex(ord int, cfg CacheConfig) *dupIndex {
	for _, x := range p.dups {
		if x.ord == ord && x.cfg == cfg {
			return x
		}
	}
	x := newDupIndex(ord, cfg, p)
	p.dups = append(p.dups, x)
	return x
}

// inert answers for one frame: its key's holders; and Fresh, as a copy
// in flight marks its node no earlier than now. Node ids are below 2^16.
func (p *Plane) inert(f *radio.Frame) radio.Inert {
	b := &f.Payload
	x := p.absorb[b.Kind]
	if x == nil {
		return radio.Inert{}
	}
	set, until := x.holders(Key{Origin: b.Origin, ID: b.ID})
	return radio.Inert{Set: set, Until: until, Fresh: p.sim.Now() + x.cfg.Timeout, Skip: b.Origin,
		Token: uint64(b.Kind+1)<<56 | uint64(uint32(b.Origin))<<32 | uint64(b.ID)}
}
