package p2p

import "manetp2p/internal/sim"

// This file implements connection maintenance (figs. 1 and 2 of the
// paper). For the symmetric algorithms only the initiator probes ("the
// number of pings and pongs was cut half"); the responder answers pongs
// and watches a ping deadline. Pong arrivals double as distance probes:
// the pong's ad-hoc hop count is checked against MAXDIST (2·MAXDIST for
// random connections) and the link is closed if the peer strayed.

// startPinging arms the initiator-side keepalive loop for c.
func (sv *Servent) startPinging(c *conn) {
	c.pingTimer = sim.NewTimer(sv.s, func() { sv.pingTick(c) })
	c.pingTimer.Reset(sv.par.PingInterval)
}

// pingTick fires both to send the next ping and as the pong deadline.
func (sv *Servent) pingTick(c *conn) {
	if sv.conns[c.peer] != c || !sv.joined {
		return
	}
	if c.awaitPong {
		// No pong within PongTimeout: "the lack (of a pong) means the
		// neighbor is not reachable anymore and the connection is over."
		sv.closeConn(c.peer, false)
		return
	}
	c.awaitingSeq++
	c.awaitPong = true
	sv.send(c.peer, Msg{Kind: msgPing, Seq: c.awaitingSeq})
	c.pingTimer.Reset(sv.par.PongTimeout)
}

// onPing answers a keepalive probe.
func (sv *Servent) onPing(from int, m Msg) {
	c, ok := sv.conns[from]
	if !ok && sv.alg.Symmetric() {
		// A symmetric-algorithm ping for a connection we do not have:
		// tell the peer to drop its stale half.
		sv.send(from, Msg{Kind: msgBye})
		return
	}
	// Asymmetric references (Basic) hold no state at the pinged node,
	// which simply answers (§6.1.1).
	sv.send(from, Msg{Kind: msgPong, Seq: m.Seq})
	if ok && c.deadline != nil {
		c.deadline.Reset(sv.deadlineWindow())
	}
}

// onPong completes a probe round trip; adhocHops is the distance the
// pong traveled, i.e. the current ad-hoc distance to the peer.
func (sv *Servent) onPong(from int, m Msg, adhocHops int) {
	c, ok := sv.conns[from]
	if !ok || !c.awaitPong || m.Seq != c.awaitingSeq {
		return
	}
	c.awaitPong = false
	if sv.alg.Symmetric() {
		limit := sv.par.MaxDist
		if c.random {
			limit = 2 * sv.par.MaxDist
		}
		if adhocHops > limit {
			// "if the node is nearer than MAXDIST, wait before next
			// ping; else close this connection" (fig. 2).
			sv.closeConn(c.peer, true)
			return
		}
	}
	c.pingTimer.Reset(sv.par.PingInterval)
}

// startDeadline arms the responder-side expected-ping watchdog.
func (sv *Servent) startDeadline(c *conn) {
	c.deadline = sim.NewTimer(sv.s, func() {
		if sv.conns[c.peer] != c || !sv.joined {
			return
		}
		sv.closeConn(c.peer, false)
	})
	c.deadline.Reset(sv.deadlineWindow())
}

// deadlineWindow is how long a responder waits for the next ping before
// declaring the initiator gone: one full ping period plus the pong
// timeout, doubled for slack against routing delays.
func (sv *Servent) deadlineWindow() sim.Time {
	return 2 * (sv.par.PingInterval + sv.par.PongTimeout)
}
