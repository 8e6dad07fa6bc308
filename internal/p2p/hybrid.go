package p2p

import (
	"strconv"

	"manetp2p/internal/sim"
	"manetp2p/internal/trace"
)

// This file implements the Hybrid algorithm (§6.2): peers carry a
// qualifier (energy level, processor power, ...); higher-qualified peers
// become masters of small subnets, lower-qualified peers their slaves.
// Masters interconnect with the Regular algorithm. The network
// reorganizes itself when a master stays slaveless too long or a slave
// strays too far from its master. setRole makes every role change, and
// the enslavement reservation is a pending handshake marked slave.

// HybridState is a Hybrid-algorithm servent's role (§6.2).
type HybridState int

const (
	// StateInitial means the peer is still looking for a master or slaves.
	StateInitial HybridState = iota
	// StateMaster means the peer coordinates a subnet of slaves and
	// participates in the master mesh.
	StateMaster
	// StateSlave means the peer communicates only with its master.
	StateSlave
	// StateReserved is the transitional state during an enslavement
	// handshake.
	StateReserved
)

// stateNames is the paper's name for each state, indexed by value.
var stateNames = [...]string{StateInitial: "initial", StateMaster: "master", StateSlave: "slave", StateReserved: "reserved"}

// String returns the paper's name for the state.
func (s HybridState) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return "state(" + strconv.Itoa(int(s)) + ")"
	}
	return stateNames[s]
}

// hybridAlg is the Hybrid algorithm's entry in the algorithms table.
type hybridAlg struct{}

// step is one establishment-cycle iteration; its behavior depends on the
// peer's state.
func (hybridAlg) step(sv *Servent) {
	switch sv.state {
	case StateInitial:
		if sv.nhops == 0 {
			// Swept every radius without finding anyone to serve or obey:
			// entitle ourselves master (§6.2).
			sv.setRole(StateMaster)
			sv.scheduleCycle(0)
			return
		}
		sv.broadcast(sv.nhops, Msg{Kind: msgCapture, Qualifier: sv.opt.Qualifier})
		sv.ringAdvance()
	case StateMaster:
		// "use the regular algorithm to contact other masters".
		if sv.nhops != 0 && sv.needMasterLink() {
			sv.broadcast(sv.nhops, Msg{Kind: msgSolicit, MasterOnly: true})
		}
		sv.ringAdvance()
	}
}

// needEstablish: slaves and reserved peers do not solicit.
func (hybridAlg) needEstablish(sv *Servent) bool {
	return sv.state == StateInitial || sv.needMasterLink()
}

// needRegularSlot is the master mesh's accounting: solicited links are
// mesh links.
func (hybridAlg) needRegularSlot(sv *Servent) bool { return sv.needMasterLink() }

// willing: only masters answer mesh solicitations; slaves talk to no one
// but their master (§6.2).
func (hybridAlg) willing(sv *Servent, _, masterOnly bool) bool {
	return masterOnly && sv.needMasterLink()
}

func (hybridAlg) connClosed(sv *Servent, c *conn) {
	switch {
	case c.toMaster:
		// "...and, if it is a slave, the peer resets its state to
		// initial. It then tries to contact other peers" (§6.2).
		sv.setRole(StateInitial)
	case c.toSlave:
		if sv.state == StateMaster && sv.slaveCount() == 0 {
			sv.armNoSlaveTimer()
		}
	default: // master-mesh link
		sv.ensureCycle()
	}
}

func (hybridAlg) leave(sv *Servent) { sv.setRole(StateInitial) }

// handle serves capture and the enslave handshake, the kinds only Hybrid
// speaks.
func (hybridAlg) handle(sv *Servent, from int, m Msg) {
	switch m.Kind {
	case msgCapture:
		sv.onCapture(from, m)
	case msgEnslaveReq:
		sv.onEnslaveReq(from, m)
	case msgEnslaveAccept:
		sv.onEnslaveAccept(from)
	case msgEnslaveConfirm:
		sv.onEnslaveConfirm(from)
	case msgEnslaveReject:
		sv.onEnslaveReject(from)
	}
}

// checkView: each link carries exactly one role, at most MAXNSLAVES
// slaves and MAXNCONN mesh links, connections that agree with the role,
// and a reservation in flight.
func (hybridAlg) checkView(a Algorithm, v *View, par Params, report reportFn) {
	slaves, mesh, toMaster := 0, 0, 0
	for k := range v.Conns {
		cv := &v.Conns[k]
		if cv.Random {
			report("conn-flags", cv.Peer, "random link under algorithm %v", a)
		}
		roles := 0
		for _, f := range [...]bool{cv.ToMaster, cv.ToSlave, cv.Master} {
			if f {
				roles++
			}
		}
		if roles != 1 {
			report("conn-flags", cv.Peer,
				"hybrid connection must carry exactly one role flag, has toMaster=%v toSlave=%v master=%v",
				cv.ToMaster, cv.ToSlave, cv.Master)
		}
		switch {
		case cv.Random:
		case cv.ToSlave:
			slaves++
		case cv.Master:
			mesh++
		case cv.ToMaster:
			toMaster++
		}
	}
	if slaves > par.MaxNSlaves {
		report("slave-cap", -1, "%d slaves > MAXNSLAVES %d", slaves, par.MaxNSlaves)
	}
	if mesh > par.MaxNConn {
		report("conn-cap", -1, "%d master-mesh links > MAXNCONN %d", mesh, par.MaxNConn)
	}
	if toMaster > 1 {
		report("role-flags", -1, "%d master links; a slave obeys exactly one master", toMaster)
	}
	switch v.State {
	case StateMaster:
		if toMaster > 0 {
			report("role-flags", -1, "master holds %d links to a master of its own", toMaster)
		}
	case StateSlave:
		if slaves > 0 || mesh > 0 {
			report("role-flags", -1, "slave holds %d slave links and %d mesh links", slaves, mesh)
		}
		if toMaster == 0 {
			// The enslavement installs the master link in the same event
			// that enters StateSlave, so a masterless slave is a leak.
			report("role-flags", -1, "slave with no master link")
		}
	case StateInitial, StateReserved:
		if len(v.Conns) > 0 {
			report("role-flags", -1,
				"state %v with %d conns; only masters and slaves hold connections", v.State, len(v.Conns))
		}
	}
	if v.State == StateReserved && len(v.Pending) == 0 {
		report("reserved-leak", -1, "reserved state with nothing in flight can never resolve")
	}
}

// checkPair: both ends agree on the link's role, and the peer is in the
// state the role requires.
func (hybridAlg) checkPair(cv, rc *ConnView, pv *View, report reportFn) {
	if cv.ToSlave != rc.ToMaster || cv.ToMaster != rc.ToSlave || cv.Master != rc.Master {
		report("role-asym", cv.Peer,
			"role flags disagree: here toMaster=%v toSlave=%v master=%v, peer toMaster=%v toSlave=%v master=%v",
			cv.ToMaster, cv.ToSlave, cv.Master, rc.ToMaster, rc.ToSlave, rc.Master)
	}
	if cv.ToMaster && pv.State != StateMaster {
		report("slave-master", cv.Peer, "our master is in state %v, not a live master", pv.State)
	}
	if cv.ToSlave && pv.State != StateSlave {
		report("master-slave", cv.Peer, "our slave is in state %v", pv.State)
	}
	if cv.Master && pv.State != StateMaster {
		report("mesh-master", cv.Peer, "mesh peer is in state %v, not a master", pv.State)
	}
}

// needMasterLink reports whether a master wants more mesh links, live
// and pending.
func (sv *Servent) needMasterLink() bool {
	if sv.state != StateMaster {
		return false
	}
	n := sv.masterLinkCount()
	for _, h := range sv.pending { // commutative: pure count
		if h.master {
			n++
		}
	}
	return n < sv.par.MaxNConn
}

// masterLinkCount counts live master-mesh links.
func (sv *Servent) masterLinkCount() int {
	n := 0
	for _, c := range sv.conns { // commutative: pure count
		if c.master {
			n++
		}
	}
	return n
}

// slaveCount counts this master's live slaves.
func (sv *Servent) slaveCount() int {
	n := 0
	for _, c := range sv.conns { // commutative: pure count
		if c.toSlave {
			n++
		}
	}
	return n
}

// setRole is the only code that writes sv.state. Every change drops the
// handshakes in flight. Leaving master closes the mesh and slave links
// and stops the slaveless timer. A slave stops its cycle; every other
// role makes sure it runs, restarting the sweep for a new master or a
// peer back from master or slave (a failed reservation resumes it).
func (sv *Servent) setRole(to HybridState) {
	from := sv.state
	if from == to {
		return
	}
	sv.opt.Tracer.Emit(trace.KindState, sv.id, -1, "%v->%v", trace.Str(from.String()), trace.Str(to.String()))
	sv.state = to
	sv.dropPending()
	if from == StateMaster {
		for _, peer := range sv.Peers() { // sorted: keeps runs reproducible
			if c := sv.conns[peer]; c != nil && (c.master || c.toSlave) {
				sv.closeConn(peer, true)
			}
		}
		if sv.noSlave != nil {
			sv.noSlave.Stop()
		}
	}
	if to == StateSlave {
		sv.cycleEv.Cancel()
		sv.cycleEv = sim.Handle{}
		sv.cycleRunning = false
		return
	}
	if to == StateMaster || from == StateMaster || from == StateSlave {
		sv.nhops = sv.par.NHopsInitial
		sv.timer = sv.par.TimerInitial
	}
	if to == StateMaster {
		sv.armNoSlaveTimer()
	}
	sv.ensureCycle()
}

// armNoSlaveTimer starts the MAXTIMERMASTER countdown: a master that
// owns no slave for that long "could, potentially, be another peer's
// slave" and reverts to initial.
func (sv *Servent) armNoSlaveTimer() {
	if sv.noSlave == nil {
		sv.noSlave = sim.NewTimer(sv.s, sv.noSlaveExpired)
	}
	sv.noSlave.Reset(sv.par.MasterIdle)
}

func (sv *Servent) noSlaveExpired() {
	if !sv.joined || sv.state != StateMaster || sv.slaveCount() > 0 {
		return
	}
	sv.setRole(StateInitial)
}

// outranks reports whether this peer's (qualifier, id) exceeds the
// other's — ids break qualifier ties so two equal devices still order.
func (sv *Servent) outranks(peerQual float64, peerID int) bool {
	if sv.opt.Qualifier != peerQual {
		return sv.opt.Qualifier > peerQual
	}
	return sv.id > peerID
}

// onCapture handles the hybrid discovery broadcast and, with Reply set,
// a higher-qualified peer's unicast advertisement: lower-qualified
// initial peers try to enslave themselves to the sender; to a broadcast,
// higher-qualified initial peers and masters advertise back.
func (sv *Servent) onCapture(from int, m Msg) {
	switch {
	case sv.state == StateInitial && !sv.outranks(m.Qualifier, from):
		sv.tryEnslaveTo(from)
	case !m.Reply && (sv.state == StateInitial || sv.state == StateMaster) && sv.outranks(m.Qualifier, from):
		sv.send(from, Msg{Kind: msgCapture, Qualifier: sv.opt.Qualifier, Reply: true})
	}
}

// tryEnslaveTo starts the enslavement handshake toward a prospective
// master, moving through the transitional reserved state.
func (sv *Servent) tryEnslaveTo(master int) {
	if sv.state != StateInitial {
		return
	}
	sv.setRole(StateReserved)
	sv.send(master, Msg{Kind: msgEnslaveReq, Qualifier: sv.opt.Qualifier})
	sv.hold(&handshake{peer: master, slave: true})
}

// onEnslaveReq is the master side of the enslavement handshake. An
// initial peer that receives one becomes a master on the spot.
func (sv *Servent) onEnslaveReq(from int, _ Msg) {
	if !(sv.state == StateInitial || sv.state == StateMaster) ||
		sv.slaveCount() >= sv.par.MaxNSlaves || sv.conns[from] != nil {
		sv.send(from, Msg{Kind: msgEnslaveReject})
		return
	}
	if sv.state == StateInitial {
		sv.setRole(StateMaster)
	}
	sv.send(from, Msg{Kind: msgEnslaveAccept})
}

// onEnslaveAccept is the slave finalizing: install the master link and
// confirm.
func (sv *Servent) onEnslaveAccept(from int) {
	if sv.inFlight(from, true) == nil {
		return
	}
	sv.setRole(StateSlave)
	sv.installConn(&conn{peer: from, toMaster: true, initiator: true})
	sv.send(from, Msg{Kind: msgEnslaveConfirm})
}

// onEnslaveConfirm is the master finalizing a new slave.
func (sv *Servent) onEnslaveConfirm(from int) {
	if sv.state != StateMaster {
		// We are no longer able to serve; let the slave's keepalive
		// discover it quickly.
		sv.send(from, Msg{Kind: msgBye})
		return
	}
	if _, dup := sv.conns[from]; dup {
		return
	}
	if sv.slaveCount() >= sv.par.MaxNSlaves {
		sv.send(from, Msg{Kind: msgBye})
		return
	}
	sv.installConn(&conn{peer: from, toSlave: true, initiator: false})
	if sv.noSlave != nil {
		sv.noSlave.Stop()
	}
}

// onEnslaveReject returns a spurned slave candidate to initial.
func (sv *Servent) onEnslaveReject(from int) {
	if sv.inFlight(from, true) != nil {
		sv.setRole(StateInitial)
	}
}
