package route

import (
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/sim"
)

// Plane is the routing state one simulation's nodes share: the clock and
// one duplicate index per cache family. Whoever builds a network creates
// one Plane and hands it to every node's router constructor; nothing in
// it is package-level, so concurrent replications share nothing.
type Plane struct {
	sim   *sim.Sim
	nodes int
	dups  []*dupIndex

	// Per frame kind, a cache whose marks make it inert; the eviction hook.
	absorb  [netif.NumPacketKinds]*DupCache
	onEvict func(node int)
}

// NewPlane creates the shared routing state for a simulation of nodes
// nodes, ids 0 to nodes−1.
func NewPlane(s *sim.Sim, nodes int) *Plane {
	return &Plane{sim: s, nodes: nodes}
}

// Sim returns the simulation's kernel.
func (p *Plane) Sim() *sim.Sim { return p.sim }

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
	dc := p.absorb[b.Kind]
	if dc == nil {
		return radio.Inert{}
	}
	set, until := dc.Holders(Key{Origin: b.Origin, ID: b.ID})
	return radio.Inert{Set: set, Until: until, Fresh: p.sim.Now() + dc.x.cfg.Timeout, Skip: b.Origin,
		Token: uint64(dc.x.ord+1)<<56 | uint64(uint32(b.Origin))<<32 | uint64(b.ID)}
}
