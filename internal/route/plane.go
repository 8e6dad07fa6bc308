package route

import (
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
	x := newDupIndex(ord, cfg, p.sim, p.nodes)
	p.dups = append(p.dups, x)
	return x
}
