package invariant

import (
	"manetp2p/internal/p2p"
	"manetp2p/internal/route"
)

// PlaneForTest returns the routing plane the checker audits.
func (c *Checker) PlaneForTest() *route.Plane { return c.t.Plane }

// LedgerForTest returns the query ledger Finalize audits.
func (c *Checker) LedgerForTest() *p2p.QueryLedger { return c.t.Ledger }
