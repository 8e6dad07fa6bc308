package p2p

// This file implements the Basic algorithm (§6.1.1): fixed-radius
// discovery broadcasts every TIMER, asymmetric references created the
// moment a reply arrives, no handshake, no distance rule.

// basicAlg is the Basic algorithm's entry in the algorithms table.
type basicAlg struct{}

// step broadcasts one discovery round and reschedules itself.
func (basicAlg) step(sv *Servent) {
	sv.broadcast(sv.par.NHopsBasic, Msg{Kind: msgDiscover})
	sv.scheduleCycle(sv.par.TimerBasic)
}

func (basicAlg) needEstablish(sv *Servent) bool { return len(sv.conns) < sv.par.MaxNConn }

// Basic neither solicits nor answers solicitations: discover and reply
// replace the handshake.
func (basicAlg) needRegularSlot(*Servent) bool     { return false }
func (basicAlg) willing(*Servent, bool, bool) bool { return false }

func (basicAlg) connClosed(sv *Servent, _ *conn) { sv.ensureCycle() }
func (basicAlg) leave(*Servent)                  {}

// handle serves discover and reply, the kinds only Basic speaks.
func (basicAlg) handle(sv *Servent, from int, m Msg) {
	switch m.Kind {
	case msgDiscover:
		// "Every node that listens to this message answers it" — capacity
		// is not checked, which is part of why Basic floods the network
		// (fig. 7/8 of the paper).
		sv.send(from, Msg{Kind: msgReply})
	case msgReply:
		sv.onReply(from)
	}
}

// checkView holds Basic's references to Regular's rules: plain links, at
// most MAXNCONN of them. Pair rules do not apply to one-directional
// references.
func (basicAlg) checkView(a Algorithm, v *View, par Params, report reportFn) {
	regularAlg{}.checkView(a, v, par, report)
}
func (basicAlg) checkPair(*ConnView, *ConnView, *View, reportFn) {}

// onReply turns a discovery answer into an asymmetric reference: only
// the discoverer holds state; the replier is not even told.
func (sv *Servent) onReply(from int) {
	if len(sv.conns) >= sv.par.MaxNConn {
		return
	}
	if _, dup := sv.conns[from]; dup {
		return
	}
	sv.installConn(&conn{peer: from, initiator: true})
}
