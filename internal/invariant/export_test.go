package invariant

import "manetp2p/internal/route"

// PlaneForTest returns the routing plane the checker audits.
func (c *Checker) PlaneForTest() *route.Plane { return c.t.Plane }
