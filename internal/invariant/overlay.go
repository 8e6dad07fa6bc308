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
// window. Only the rules every algorithm shares are stated here; the
// rest (flags, caps, roles) belong to the algorithm, which the checker
// asks through p2p.Algorithm.CheckView and CheckPair.

// checkOverlay snapshots every servent and validates the protocol
// invariants of the configured algorithm.
func (c *Checker) checkOverlay() {
	for i, sv := range c.t.Servents {
		if sv != nil {
			sv.Inspect(&c.views[i])
			c.checkNode(i, &c.views[i]) // reads no other view
		}
	}
	if !c.t.Algorithm.Symmetric() {
		// Basic references are asymmetric by design (§6.1.1): the replier
		// holds no state, so no pairwise rule applies.
		return
	}
	for i, sv := range c.t.Servents {
		if sv != nil {
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

	for k := range v.Conns {
		cv := &v.Conns[k]
		if cv.Peer == i {
			c.report("p2p", "conn-target", i, cv.Peer, "connected to itself")
			continue
		}
		if cv.Peer < 0 || cv.Peer >= len(c.t.Servents) || c.t.Servents[cv.Peer] == nil {
			c.report("p2p", "conn-target", i, cv.Peer, "peer is not a servent")
			continue
		}
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

	c.node = i
	c.t.Algorithm.CheckView(v, c.t.Params, c.reportNode)

	for k := range v.Pending {
		pv := &v.Pending[k]
		if !pv.TimeoutArmed {
			// A reservation without an expiry holds its connection slot
			// forever once the handshake stalls.
			c.report("p2p", "pending-leak", i, pv.Peer, "in-flight handshake with no timeout armed")
		}
		if cv := findConn(v, pv.Peer); cv != nil {
			c.observePair("pending-overlap", i, pv.Peer, cv.Since,
				"peer is simultaneously a live connection and a pending handshake")
		}
	}

	if pc := c.t.Params.PeerCache.WithDefaults(); pc.Enabled && v.CacheLen > pc.Size {
		c.report("p2p", "cache-cap", i, -1, "peer cache holds %d entries > cap %d", v.CacheLen, pc.Size)
	}
}

// checkPairs runs the graced cross-node rules for servent i's
// connections.
func (c *Checker) checkPairs(i int, v *p2p.View) {
	c.node = i
	for k := range v.Conns {
		cv := &v.Conns[k]
		b := cv.Peer
		if b == i || b < 0 || b >= len(c.t.Servents) || c.t.Servents[b] == nil {
			continue // already reported by checkNode
		}
		pv := &c.views[b]
		if !pv.Joined {
			c.observePair("dangling-conn", i, b, cv.Since, "peer left the overlay but the link was never torn down")
			continue
		}
		rc := findConn(pv, i)
		if rc == nil {
			c.observePair("symmetry", i, b, cv.Since, "connection has no counterpart on the peer")
			continue
		}
		if cv.Initiator == rc.Initiator {
			c.observePair("initiator-asym", i, b, cv.Since,
				"both-or-neither endpoint initiates the keepalive (initiator=%v)", cv.Initiator)
		}
		if cv.Random != rc.Random {
			c.observePair("random-asym", i, b, cv.Since,
				"random flag disagrees (here %v, peer %v)", cv.Random, rc.Random)
		}
		c.since = cv.Since
		c.t.Algorithm.CheckPair(cv, rc, pv, c.observeNode)
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
