package invariant

import (
	"manetp2p/internal/p2p"
)

// This file holds the p2p-layer rules. Node-local structural rules
// (caps, flag legality, timer liveness) hold between any two events and
// report immediately. Cross-node rules (symmetry, hybrid role
// consistency) are legitimately false while a close or handshake is in
// flight — the keepalive design lets one side of a silently-closed
// connection linger up to the responder deadline window — so those go
// through observePair and only report once they persist past the grace
// window.

// checkOverlay snapshots every servent and validates the protocol
// invariants of the configured algorithm.
func (c *Checker) checkOverlay() {
	for i, sv := range c.t.Servents {
		if sv == nil {
			continue
		}
		sv.Inspect(&c.views[i])
	}
	for i, sv := range c.t.Servents {
		if sv == nil {
			continue
		}
		c.checkNode(i, &c.views[i])
	}
	if c.t.Algorithm.Symmetric() {
		// Basic references are asymmetric by design (§6.1.1): the replier
		// holds no state, so no pairwise rule applies.
		for i, sv := range c.t.Servents {
			if sv == nil {
				continue
			}
			c.checkPairs(i, &c.views[i])
		}
	}
}

// checkNode runs the node-local rules for servent i.
func (c *Checker) checkNode(i int, v *p2p.View) {
	if !v.Joined {
		// Leave tears everything down in the same event; any residue is a
		// leak, not a transition window.
		if len(v.Conns) > 0 || len(v.Pending) > 0 {
			c.report("p2p", "left-state", i, -1,
				"left the overlay but retains %d conns and %d pending handshakes",
				len(v.Conns), len(v.Pending))
		}
		if v.State != p2p.StateInitial {
			c.report("p2p", "left-state", i, -1,
				"left the overlay in state %v", v.State)
		}
		return
	}

	regular, random, slaves, mesh, toMaster := 0, 0, 0, 0, 0
	for k := range v.Conns {
		cv := &v.Conns[k]
		switch {
		case cv.Random:
			random++
		case cv.ToSlave:
			slaves++
		case cv.Master:
			mesh++
		case cv.ToMaster:
			toMaster++
		default:
			regular++
		}
		if cv.Peer == i {
			c.report("p2p", "conn-target", i, cv.Peer, "connected to itself")
			continue
		}
		if cv.Peer < 0 || cv.Peer >= len(c.t.Servents) || c.t.Servents[cv.Peer] == nil {
			c.report("p2p", "conn-target", i, cv.Peer, "peer is not a servent")
			continue
		}
		c.checkConnFlags(i, cv)
		// Exactly one keepalive guards each live connection: the
		// initiator's ping loop or the responder's ping deadline. Both
		// dark means peer loss can never be detected — the link leaks.
		if cv.Initiator && !cv.PingArmed {
			c.report("p2p", "keepalive-dead", i, cv.Peer, "initiator with no ping timer armed")
		}
		if !cv.Initiator && !cv.DeadlineArmed {
			c.report("p2p", "keepalive-dead", i, cv.Peer, "responder with no ping deadline armed")
		}
	}

	c.checkCaps(i, v, regular, random, slaves, mesh, toMaster)
	c.checkHybridState(i, v, slaves, mesh, toMaster)

	for k := range v.Pending {
		pv := &v.Pending[k]
		if !pv.TimeoutArmed {
			// A reservation without an expiry holds its connection slot
			// forever once the handshake stalls.
			c.report("p2p", "pending-leak", i, pv.Peer, "in-flight handshake with no timeout armed")
		}
		if findConn(v, pv.Peer) != nil {
			c.observePair("pending-overlap", i, pv.Peer,
				"peer is simultaneously a live connection and a pending handshake")
		}
	}

	if pc := c.t.Params.PeerCache.WithDefaults(); pc.Enabled && v.CacheLen > pc.Size {
		c.report("p2p", "cache-cap", i, -1, "peer cache holds %d entries > cap %d", v.CacheLen, pc.Size)
	}
}

// checkConnFlags validates that a connection's role flags are legal for
// the configured algorithm.
func (c *Checker) checkConnFlags(i int, cv *p2p.ConnView) {
	if cv.Random && c.t.Algorithm != p2p.Random {
		c.report("p2p", "conn-flags", i, cv.Peer, "random link under algorithm %v", c.t.Algorithm)
	}
	hybridFlags := 0
	for _, f := range [...]bool{cv.ToMaster, cv.ToSlave, cv.Master} {
		if f {
			hybridFlags++
		}
	}
	switch {
	case c.t.Algorithm != p2p.Hybrid && hybridFlags > 0:
		c.report("p2p", "conn-flags", i, cv.Peer,
			"hybrid role flags (toMaster=%v toSlave=%v master=%v) under algorithm %v",
			cv.ToMaster, cv.ToSlave, cv.Master, c.t.Algorithm)
	case c.t.Algorithm == p2p.Hybrid && hybridFlags != 1:
		c.report("p2p", "conn-flags", i, cv.Peer,
			"hybrid connection must carry exactly one role flag, has toMaster=%v toSlave=%v master=%v",
			cv.ToMaster, cv.ToSlave, cv.Master)
	}
}

// checkCaps enforces the per-algorithm connection capacities (§6).
func (c *Checker) checkCaps(i int, v *p2p.View, regular, random, slaves, mesh, toMaster int) {
	par := c.t.Params
	switch c.t.Algorithm {
	case p2p.Basic, p2p.Regular:
		if len(v.Conns) > par.MaxNConn {
			c.report("p2p", "conn-cap", i, -1, "%d conns > MAXNCONN %d", len(v.Conns), par.MaxNConn)
		}
	case p2p.Random:
		// One slot is held back for the long-range link (§6.1.4).
		if regular > par.MaxNConn-1 {
			c.report("p2p", "conn-cap", i, -1, "%d regular conns > MAXNCONN-1 %d", regular, par.MaxNConn-1)
		}
		if random > 1 {
			c.report("p2p", "random-cap", i, -1, "%d random links > 1", random)
		}
	case p2p.Hybrid:
		if slaves > par.MaxNSlaves {
			c.report("p2p", "slave-cap", i, -1, "%d slaves > MAXNSLAVES %d", slaves, par.MaxNSlaves)
		}
		if mesh > par.MaxNConn {
			c.report("p2p", "conn-cap", i, -1, "%d master-mesh links > MAXNCONN %d", mesh, par.MaxNConn)
		}
		if toMaster > 1 {
			c.report("p2p", "role-flags", i, -1, "%d master links; a slave obeys exactly one master", toMaster)
		}
	}
}

// checkHybridState validates that a hybrid servent's connections agree
// with its role, and that the transitional reserved state cannot leak.
func (c *Checker) checkHybridState(i int, v *p2p.View, slaves, mesh, toMaster int) {
	if c.t.Algorithm != p2p.Hybrid {
		if v.State != p2p.StateInitial {
			c.report("p2p", "role-flags", i, -1, "state %v under algorithm %v", v.State, c.t.Algorithm)
		}
		return
	}
	switch v.State {
	case p2p.StateMaster:
		if toMaster > 0 {
			c.report("p2p", "role-flags", i, -1, "master holds %d links to a master of its own", toMaster)
		}
	case p2p.StateSlave:
		if slaves > 0 || mesh > 0 {
			c.report("p2p", "role-flags", i, -1,
				"slave holds %d slave links and %d mesh links", slaves, mesh)
		}
		if toMaster == 0 {
			// The enslavement installs the master link in the same event
			// that enters StateSlave, so a masterless slave is a leak.
			c.report("p2p", "role-flags", i, -1, "slave with no master link")
		}
	case p2p.StateInitial, p2p.StateReserved:
		if len(v.Conns) > 0 {
			c.report("p2p", "role-flags", i, -1,
				"state %v with %d conns; only masters and slaves hold connections", v.State, len(v.Conns))
		}
	}
	if v.State == p2p.StateReserved && !v.ReservedArmed {
		c.report("p2p", "reserved-leak", i, v.ReservedWith,
			"reserved state with no expiry armed can never resolve")
	}
}

// checkPairs runs the graced cross-node rules for servent i's
// connections.
func (c *Checker) checkPairs(i int, v *p2p.View) {
	for k := range v.Conns {
		cv := &v.Conns[k]
		b := cv.Peer
		if b == i || b < 0 || b >= len(c.t.Servents) || c.t.Servents[b] == nil {
			continue // already reported by checkNode
		}
		pv := &c.views[b]
		if !pv.Joined {
			c.observePair("dangling-conn", i, b, "peer left the overlay but the link was never torn down")
			continue
		}
		rc := findConn(pv, i)
		if rc == nil {
			c.observePair("symmetry", i, b, "connection has no counterpart on the peer")
			continue
		}
		if cv.Initiator == rc.Initiator {
			c.observePair("initiator-asym", i, b,
				"both-or-neither endpoint initiates the keepalive (initiator=%v)", cv.Initiator)
		}
		if cv.Random != rc.Random {
			c.observePair("random-asym", i, b,
				"random flag disagrees (here %v, peer %v)", cv.Random, rc.Random)
		}
		if c.t.Algorithm == p2p.Hybrid {
			if cv.ToSlave != rc.ToMaster || cv.ToMaster != rc.ToSlave || cv.Master != rc.Master {
				c.observePair("role-asym", i, b,
					"role flags disagree: here toMaster=%v toSlave=%v master=%v, peer toMaster=%v toSlave=%v master=%v",
					cv.ToMaster, cv.ToSlave, cv.Master, rc.ToMaster, rc.ToSlave, rc.Master)
			}
			if cv.ToMaster && pv.State != p2p.StateMaster {
				c.observePair("slave-master", i, b, "our master is in state %v, not a live master", pv.State)
			}
			if cv.ToSlave && pv.State != p2p.StateSlave {
				c.observePair("master-slave", i, b, "our slave is in state %v", pv.State)
			}
			if cv.Master && pv.State != p2p.StateMaster {
				c.observePair("mesh-master", i, b, "mesh peer is in state %v, not a master", pv.State)
			}
		}
	}
}

// findConn returns the peer's connection view toward node id, or nil.
// Conns is sorted by peer id (Inspect guarantees it), so binary search.
func findConn(v *p2p.View, id int) *p2p.ConnView {
	lo, hi := 0, len(v.Conns)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.Conns[mid].Peer < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.Conns) && v.Conns[lo].Peer == id {
		return &v.Conns[lo]
	}
	return nil
}
