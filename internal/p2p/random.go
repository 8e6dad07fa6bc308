package p2p

// This file implements the Random algorithm (§6.1.4, fig. 3 of the
// paper): Regular with one of the MAXNCONN slots held back for a
// long-range "random" link. The link is solicited with randhops ∈
// [nhops, 2·MAXNHOPS], offers are collected for a window, the farthest
// responder gets the accept, and MAXDIST doubles for it.

import "manetp2p/internal/sim"

// randomAlg is the Random algorithm's entry in the algorithms table. It
// is Regular plus the long link: a lost link, the message kinds and the
// pair rules are Regular's.
type randomAlg struct{ regularAlg }

// step is one iteration of fig. 3's loop: Regular's, plus a long-link
// solicitation while that link is missing.
func (randomAlg) step(sv *Servent) {
	sv.ringSolicit()
	if sv.needRandomLink() {
		sv.startRandomSolicit()
	}
	sv.ringAdvance()
}

func (r randomAlg) needEstablish(sv *Servent) bool {
	return r.needRegularSlot(sv) || sv.needRandomLink()
}

// needRegularSlot caps regular links, live and pending, at MAXNCONN−1.
func (randomAlg) needRegularSlot(sv *Servent) bool {
	n := 0
	for _, c := range sv.conns { // commutative: pure count
		if !c.random && !c.toMaster && !c.toSlave {
			n++
		}
	}
	for _, h := range sv.pending { // commutative: pure count
		if !h.random {
			n++
		}
	}
	return n < sv.par.MaxNConn-1
}

func (r randomAlg) willing(sv *Servent, random, masterOnly bool) bool {
	switch {
	case masterOnly:
		return false
	case random:
		// A random link fills our own random slot.
		return sv.lacksRandomLink() && sv.freeSlot()
	}
	return r.needRegularSlot(sv)
}

func (randomAlg) leave(sv *Servent) {
	// The window's end must not outlive this incarnation: after a rejoin
	// it would close the next window early.
	sv.collectEv.Cancel()
	sv.collecting = false
	sv.offers = nil
}

// checkView: no role flags, at most MAXNCONN−1 regular links and one
// random link.
func (randomAlg) checkView(a Algorithm, v *View, par Params, report reportFn) {
	checkRoleless(a, v, true, report)
	regular, random := 0, 0
	for k := range v.Conns {
		switch cv := &v.Conns[k]; {
		case cv.Random:
			random++
		case !cv.ToMaster && !cv.ToSlave && !cv.Master:
			regular++
		}
	}
	// One slot is held back for the long-range link (§6.1.4).
	if regular > par.MaxNConn-1 {
		report("conn-cap", -1, "%d regular conns > MAXNCONN-1 %d", regular, par.MaxNConn-1)
	}
	if random > 1 {
		report("random-cap", -1, "%d random links > 1", random)
	}
}

// lacksRandomLink reports whether the long link is missing and not being
// negotiated. Used for responder-side willingness: a node that is still
// collecting its own offers must not refuse an incoming random link, or
// synchronized solicitation cycles reject each other forever.
func (sv *Servent) lacksRandomLink() bool {
	if sv.HasRandomConn() {
		return false
	}
	for _, h := range sv.pending { // commutative: pure any-match
		if h.random {
			return false
		}
	}
	return true
}

// needRandomLink additionally requires that no offer collection is in
// flight; it gates starting a new solicitation.
func (sv *Servent) needRandomLink() bool {
	return !sv.collecting && sv.lacksRandomLink()
}

// startRandomSolicit begins the long-link search: broadcast with
// randhops ∈ [nhops, 2·MAXNHOPS], collect the offers for a window, then
// continue the handshake with the farthest responder only.
func (sv *Servent) startRandomSolicit() {
	lo, hi := sv.nhops, 2*sv.par.MaxNHops
	if lo < 1 {
		lo = 1
	}
	randhops := lo + sv.opt.RNG.Intn(hi-lo+1)
	sv.collecting = true
	sv.offers = sv.offers[:0]
	sv.broadcast(randhops, Msg{Kind: msgSolicit, Rand: true})
	sv.collectEv = sv.s.ScheduleArg(sv.par.OfferWindow, fireEndCollect, sim.Arg{X: sv})
}

// endRandomCollect picks the farthest responder and accepts it.
func (sv *Servent) endRandomCollect() {
	if !sv.collecting {
		return
	}
	sv.collecting = false
	if !sv.joined || !sv.lacksRandomLink() {
		return
	}
	best := -1
	for i, o := range sv.offers {
		if sv.engaged(o.peer) {
			continue
		}
		if best < 0 || o.bcastHops > sv.offers[best].bcastHops {
			best = i
		}
	}
	if best < 0 {
		return // no takers this round; the cycle will try again
	}
	sv.acceptOffer(sv.offers[best].peer, true, false)
}
