package invariant

// This file holds the overlay-graph connectivity rules: structural
// checks on the member-restricted adjacency the analytics pipeline
// consumes (Target.Adjacency, normally Network.AppendOverlayAdjacency).
// They guard the seam between the p2p layer and the graph analytics —
// a ghost row for a departed node, a degree exceeding the servent's
// live connections, or component sizes that fail to partition the
// overlay all mean the snapshot pipeline would publish corrupt
// metrics. The checker keeps its own graphs.Analyzer so a sweep stays
// allocation-free once warm and never touches the simulation's scratch.

// checkConnectivity fills the adjacency through the target hook and
// validates it against the servent views checkOverlay just refreshed —
// it must run after checkOverlay in the same pass.
func (c *Checker) checkConnectivity() {
	if c.t.Adjacency == nil {
		return
	}
	c.t.Adjacency(&c.an.S)
	if c.an.S.NumNodes() != len(c.t.Servents) {
		c.report("overlay", "adjacency-size", -1, -1,
			"adjacency holds %d rows for %d servents", c.an.S.NumNodes(), len(c.t.Servents))
		return
	}
	if c.memberFn == nil {
		c.memberFn = func(i int) bool { return c.t.Servents[i] != nil }
	}

	degSum, present := 0, 0
	for i, sv := range c.t.Servents {
		deg := c.an.S.Degree(i)
		if sv == nil || !c.views[i].Joined {
			if deg > 0 {
				c.report("overlay", "adjacency-ghost", i, -1,
					"node outside the overlay has %d adjacency entries", deg)
			}
			if sv != nil {
				present++
			}
			continue
		}
		present++
		if deg > len(c.views[i].Conns) {
			c.report("overlay", "degree-bound", i, -1,
				"adjacency degree %d exceeds %d live connections", deg, len(c.views[i].Conns))
		}
		degSum += deg
	}

	m := c.an.Analyze(c.memberFn)
	if m.Largest < 0 || m.Largest > 1 {
		c.report("overlay", "component-fraction", -1, -1,
			"largest-component fraction %v outside [0,1]", m.Largest)
	}
	if c.t.Algorithm.Symmetric() {
		// Mutual filtering makes the adjacency symmetric, so the degree
		// sum is exactly twice the edge count and the components
		// partition the non-nil servents (each as at least a singleton).
		// Basic references are one-directional, so neither law applies.
		if degSum != 2*m.Edges {
			c.report("overlay", "edge-conservation", -1, -1,
				"degree sum %d != 2 x %d edges; adjacency is not symmetric", degSum, m.Edges)
		}
		sum := 0
		for _, s := range c.an.ComponentSizes() {
			sum += s
		}
		if sum != present {
			c.report("overlay", "component-partition", -1, -1,
				"component sizes sum to %d, overlay holds %d servents", sum, present)
		}
	}
}
