package p2p

// This file implements the three-way handshake that establishes the
// symmetric connections of the Regular, Random and Hybrid algorithms:
//
//	solicitor --(solicit, broadcast)--> responders
//	responder --(offer)--> solicitor     [willing to connect]
//	solicitor --(accept)--> responder    [slot committed, reserved]
//	responder --(confirm | reject)--> solicitor
//
// The algorithm decides when to solicit, whom a responder answers
// (willing) and whether a solicitor still takes an offer
// (needRegularSlot). onOffer collects Random's long-link offers, and
// random.go picks the farthest.

import "manetp2p/internal/sim"

// onSolicit decides whether to offer a connection to the solicitor.
func (sv *Servent) onSolicit(from int, m Msg, bcastHops int) {
	if !sv.willingToConnect(from, m.Rand, m.MasterOnly) {
		return
	}
	sv.send(from, Msg{Kind: msgOffer, Rand: m.Rand, MasterOnly: m.MasterOnly, Hops: bcastHops})
}

// willingToConnect applies the responder-side capacity rules.
func (sv *Servent) willingToConnect(from int, random, masterOnly bool) bool {
	return from != sv.id && !sv.engaged(from) && sv.impl.willing(sv, random, masterOnly)
}

// engaged reports whether peer holds a connection or an in-flight
// handshake with this servent.
func (sv *Servent) engaged(peer int) bool {
	_, dup := sv.conns[peer]
	_, pend := sv.pending[peer]
	return dup || pend
}

// onOffer is the solicitor receiving a willing responder.
func (sv *Servent) onOffer(from int, m Msg) {
	if m.Rand {
		// Random-link offers are collected, not accepted eagerly.
		if sv.collecting {
			sv.offers = append(sv.offers, offerInfo{peer: from, bcastHops: m.Hops})
		}
		return
	}
	if !sv.impl.needRegularSlot(sv) || sv.engaged(from) {
		return
	}
	sv.acceptOffer(from, false, m.MasterOnly)
}

// acceptOffer commits a slot and sends the accept (second handshake step).
func (sv *Servent) acceptOffer(peer int, random, master bool) {
	h := &handshake{peer: peer, random: random, master: master}
	h.timeout = sv.s.ScheduleArg(sv.par.HandshakeWait, sv.hsTimeoutFn, sim.Arg{I0: peer, X: h})
	sv.pending[peer] = h
	sv.send(peer, Msg{Kind: msgAccept, Rand: random, Master: master})
}

// handshakeTimeout releases a reserved slot whose confirm never arrived.
func (sv *Servent) handshakeTimeout(a sim.Arg) {
	peer, h := a.I0, a.X.(*handshake)
	if sv.pending[peer] == h {
		delete(sv.pending, peer)
		sv.ensureCycle()
	}
}

// onAccept is the responder committing its half of the connection.
func (sv *Servent) onAccept(from int, m Msg) {
	if h, cross := sv.pending[from]; cross {
		// Crossing handshake: both ends solicited each other and both
		// sent accepts. Without a tie-break the two accepts reject each
		// other forever. The higher id keeps its solicitor role; the
		// lower id yields and answers as responder.
		if from < sv.id {
			sv.send(from, Msg{Kind: msgReject})
			return
		}
		delete(sv.pending, from)
		h.timeout.Cancel()
	}
	if !sv.willingToConnect(from, m.Rand, m.Master) {
		sv.send(from, Msg{Kind: msgReject})
		return
	}
	sv.installConn(&conn{peer: from, random: m.Rand, master: m.Master, initiator: false})
	sv.send(from, Msg{Kind: msgConfirm, Rand: m.Rand, Master: m.Master})
}

// onConfirm finalizes the solicitor's half.
func (sv *Servent) onConfirm(from int, m Msg) {
	h, ok := sv.pending[from]
	if !ok {
		// Our reservation timed out (or we left and rejoined); the
		// responder installed state we will never maintain — tear it
		// down explicitly rather than leaving it to keepalive timeouts.
		sv.send(from, Msg{Kind: msgBye})
		return
	}
	delete(sv.pending, from)
	h.timeout.Cancel()
	sv.installConn(&conn{peer: from, random: h.random, master: h.master, initiator: true})
}

// onReject releases the solicitor's reserved slot.
func (sv *Servent) onReject(from int) {
	h, ok := sv.pending[from]
	if !ok {
		return
	}
	delete(sv.pending, from)
	h.timeout.Cancel()
	sv.ensureCycle()
}
