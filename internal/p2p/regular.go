package p2p

// This file implements the Regular algorithm (§6.1.3, fig. 2 of the
// paper): expanding-ring solicitation with the doubling retry timer and
// symmetric connections formed by the three-way handshake, up to
// MAXNCONN of them.

// regularAlg is the Regular algorithm's entry in the algorithms table.
type regularAlg struct{}

// step is one iteration of fig. 2's loop.
func (regularAlg) step(sv *Servent) {
	sv.ringSolicit()
	sv.ringAdvance()
}

func (regularAlg) needEstablish(sv *Servent) bool   { return sv.freeSlot() }
func (regularAlg) needRegularSlot(sv *Servent) bool { return sv.freeSlot() }

// willing offers any free slot to an ordinary solicitation.
func (regularAlg) willing(sv *Servent, _, masterOnly bool) bool {
	return !masterOnly && sv.freeSlot()
}

func (regularAlg) connClosed(sv *Servent, _ *conn) { sv.ensureCycle() }
func (regularAlg) leave(*Servent)                  {}
func (regularAlg) handle(*Servent, int, Msg)       {} // speaks only the shared kinds

// checkView: plain links only, at most MAXNCONN of them.
func (regularAlg) checkView(a Algorithm, v *View, par Params, report reportFn) {
	checkRoleless(a, v, false, report)
	if len(v.Conns) > par.MaxNConn {
		report("conn-cap", -1, "%d conns > MAXNCONN %d", len(v.Conns), par.MaxNConn)
	}
}
func (regularAlg) checkPair(*ConnView, *ConnView, *View, reportFn) {}
