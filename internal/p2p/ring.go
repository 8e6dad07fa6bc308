package p2p

import "manetp2p/internal/sim"

// This file implements the establishment cycle shared by all four
// algorithms: a self-rescheduling step, supplied by the algorithm, that
// broadcasts discovery messages with the paper's expanding-ring radius
// sequence
// nhops = NHOPS_INITIAL, +2, ..., MAXNHOPS, 0, NHOPS_INITIAL, ...
// and the exponential timer backoff applied on each completed sweep.

// ensureCycle (re)starts the establishment loop if it is needed and not
// already running — called at join, after a connection closes, and after
// a handshake fails.
func (sv *Servent) ensureCycle() {
	if !sv.joined || sv.cycleRunning || !sv.impl.needEstablish(sv) {
		return
	}
	sv.cycleRunning = true
	sv.scheduleCycle(0)
}

func (sv *Servent) scheduleCycle(d sim.Time) {
	sv.cycleEv.Cancel()
	sv.cycleEv = sv.s.ScheduleArg(d, fireCycleStep, sim.Arg{X: sv})
}

func (sv *Servent) cycleStep() {
	sv.cycleEv = sim.Handle{}
	if !sv.joined || !sv.impl.needEstablish(sv) {
		sv.cycleRunning = false
		return
	}
	sv.impl.step(sv)
}

// ringSolicit is the broadcast half of one expanding-ring iteration
// (fig. 2): at a nonzero radius with a regular slot open, solicit offers.
func (sv *Servent) ringSolicit() {
	if sv.nhops != 0 && sv.impl.needRegularSlot(sv) {
		// Peer-cache extension: a unicast retry toward a known peer
		// replaces this step's broadcast when possible.
		if !sv.tryCachedPeers() {
			sv.broadcast(sv.nhops, Msg{Kind: msgSolicit})
		}
	}
}

// ringAdvance ends one expanding-ring iteration: wait TIMER before the
// next radius or, at nhops == 0 — a full sweep that failed to fill the
// table — back off with "timer = min(timer × 2, MAXTIMER)" and start the
// next sweep at once. The radius progresses as (nhops+2) mod
// (MAXNHOPS+2), i.e. 2, 4, 6, 0, 2, ...
func (sv *Servent) ringAdvance() {
	wait := sv.timer
	if sv.nhops == 0 {
		sv.timer = min(2*sv.timer, sv.par.MaxTimer)
		wait = 0
	}
	sv.nhops = (sv.nhops + 2) % (sv.par.MaxNHops + 2)
	sv.scheduleCycle(wait)
}

// freeSlot reports whether a connection slot is free, counting the slots
// held by in-flight outgoing handshakes as taken.
func (sv *Servent) freeSlot() bool {
	return len(sv.conns)+len(sv.pending) < sv.par.MaxNConn
}
