package p2p

import (
	"manetp2p/internal/telemetry"
	"testing"

	"manetp2p/internal/geom"
)

// hybridWorld builds a clique of n hybrid servents with the given
// qualifiers.
func hybridWorld(t *testing.T, seed int64, quals []float64) *world {
	t.Helper()
	return newWorld(t, worldSpec{
		seed:  seed,
		pts:   cliquePts(len(quals)),
		alg:   Hybrid,
		quals: quals,
	})
}

// checkHybridInvariants verifies the master/slave structural rules.
func checkHybridInvariants(t *testing.T, w *world) {
	t.Helper()
	for _, sv := range w.svs {
		if sv == nil || !sv.Joined() {
			continue
		}
		switch sv.State() {
		case StateSlave:
			m := sv.Master()
			if m < 0 {
				t.Errorf("slave %d has no master link", sv.id)
				continue
			}
			master := w.svs[m]
			if master.State() != StateMaster {
				t.Errorf("slave %d's master %d is in state %v", sv.id, m, master.State())
			}
			found := false
			for _, s := range master.Slaves() {
				if s == sv.id {
					found = true
				}
			}
			if !found {
				t.Errorf("master %d does not list slave %d", m, sv.id)
			}
			// "The slaves can only communicate to their master."
			if sv.ConnCount() != 1 {
				t.Errorf("slave %d has %d conns, want exactly 1 (its master)", sv.id, sv.ConnCount())
			}
		case StateMaster:
			if n := sv.slaveCount(); n > DefaultParams().MaxNSlaves {
				t.Errorf("master %d has %d slaves > MAXNSLAVES", sv.id, n)
			}
			for _, s := range sv.Slaves() {
				if w.svs[s].State() != StateSlave {
					t.Errorf("master %d lists %d (state %v) as slave", sv.id, s, w.svs[s].State())
				}
			}
		}
	}
}

func TestHybridMastersOutrankTheirSlaves(t *testing.T) {
	// Enslavement is first-come ("try to become a slave of the sender"),
	// so the global best master is not guaranteed — but every slave's
	// master must outrank it, and the lowest-qualified node must end up
	// a slave in a clique.
	quals := []float64{0.1, 0.5, 0.9}
	w := hybridWorld(t, 20, quals)
	w.joinAll()
	w.run(time(300))
	checkHybridInvariants(t, w)
	if got := w.svs[0].State(); got != StateSlave {
		t.Errorf("lowest-qualifier node state = %v, want slave", got)
	}
	for i, sv := range w.svs {
		if sv.State() != StateSlave {
			continue
		}
		m := sv.Master()
		if quals[m] < quals[i] {
			t.Errorf("slave %d (q=%.2f) serves master %d (q=%.2f): master must outrank",
				i, quals[i], m, quals[m])
		}
	}
	masters := 0
	for _, sv := range w.svs {
		if sv.State() == StateMaster {
			masters++
		}
	}
	if masters == 0 {
		t.Error("no master emerged")
	}
}

func TestHybridMaxNSlavesRespected(t *testing.T) {
	// Six low-qualified nodes cannot all enslave to the single star node:
	// MAXNSLAVES=3 forces a second subnet to emerge.
	quals := []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.99}
	w := hybridWorld(t, 21, quals)
	w.joinAll()
	w.run(time(600))
	checkHybridInvariants(t, w)
	masters, slaves := 0, 0
	for _, sv := range w.svs {
		switch sv.State() {
		case StateMaster:
			masters++
		case StateSlave:
			slaves++
		}
	}
	if masters < 2 {
		t.Errorf("masters = %d, want >= 2 (MAXNSLAVES must force a second subnet)", masters)
	}
	if masters+slaves != len(quals) {
		t.Errorf("masters+slaves = %d, want %d (no one left initial/reserved)", masters+slaves, len(quals))
	}
}

func TestHybridLoneNodeBecomesMaster(t *testing.T) {
	w := hybridWorld(t, 22, []float64{0.5})
	w.joinAll()
	w.run(time(120))
	if got := w.svs[0].State(); got != StateMaster {
		t.Errorf("lone node state = %v, want master (self-entitled after sweep)", got)
	}
}

func TestHybridMastersInterconnect(t *testing.T) {
	// Two clusters joined by relays: a cluster head (a master holding a
	// slave) emerges on each side, and the master mesh, built by the
	// regular algorithm over mesh solicitations, links the heads across
	// the relays. Which peer heads a cluster is first-come: node 5 is
	// four radio hops from node 0, within MAXDIST, so when 6 has already
	// enslaved itself to 7 before 5's two-hop capture, 5's four-hop one
	// lawfully makes it the slave of the higher-qualified 0.
	pts := []geom.Point{
		// Cluster A around (100,150).
		{X: 100, Y: 150}, {X: 102, Y: 150}, {X: 104, Y: 150},
		// Relays every 8 m.
		{X: 112, Y: 150}, {X: 120, Y: 150},
		// Cluster B around (128,150).
		{X: 128, Y: 150}, {X: 130, Y: 150}, {X: 132, Y: 150},
	}
	member := []bool{true, true, true, false, false, true, true, true}
	quals := []float64{0.9, 0.2, 0.3, 0, 0, 0.8, 0.1, 0.4}
	w := newWorld(t, worldSpec{seed: 23, pts: pts, member: member, alg: Hybrid, quals: quals})
	w.joinAll()
	w.run(time(600))
	checkHybridInvariants(t, w)
	var heads []int
	for i, sv := range w.svs {
		if sv != nil && sv.State() == StateMaster && sv.slaveCount() > 0 {
			heads = append(heads, i)
		}
	}
	if len(heads) < 2 || heads[0] > 2 || heads[len(heads)-1] < 5 {
		t.Fatalf("cluster heads %v, want one in each cluster", heads)
	}
	// The heads must be one component of the master mesh.
	reached := map[int]bool{heads[0]: true}
	for stack := []int{heads[0]}; len(stack) > 0; {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range w.svs[u].Peers() {
			if w.svs[u].conns[p].master && !reached[p] {
				reached[p] = true
				stack = append(stack, p)
			}
		}
	}
	for _, h := range heads {
		if !reached[h] {
			t.Errorf("cluster heads %v: the master mesh does not link %d to %d", heads, heads[0], h)
		}
	}
}

func TestHybridSlavelessMasterReverts(t *testing.T) {
	// A master whose slaves all die must revert to initial after
	// MAXTIMERMASTER and try to become someone's slave.
	w := hybridWorld(t, 24, []float64{0.2, 0.9, 0.95})
	w.joinAll()
	w.run(time(180))
	// Expect: node 2 master; 0 and 1 slaves of 2 (1 despite high qual,
	// since 2 outranks it), or 1 became master of 0. Find a master and
	// kill its slaves.
	var master *Servent
	for _, sv := range w.svs {
		if sv.State() == StateMaster && sv.slaveCount() > 0 {
			master = sv
			break
		}
	}
	if master == nil {
		t.Fatal("no master with slaves formed")
	}
	for _, s := range master.Slaves() {
		w.med.Leave(s)
		w.svs[s].Leave(false)
	}
	// The master must pass through initial at some point (a lone node
	// lawfully re-entitles itself master afterwards, so poll).
	reverted := false
	deadline := DefaultParams().MasterIdle + time(200)
	for elapsed := time(0); elapsed < deadline; elapsed += time(5) {
		w.run(time(5))
		if st := master.State(); st == StateInitial || st == StateReserved || st == StateSlave {
			reverted = true
			break
		}
	}
	if !reverted {
		t.Error("slaveless master never left master state after MAXTIMERMASTER")
	}
}

func TestHybridStrayedSlaveRejoins(t *testing.T) {
	// A slave dragged beyond MAXDIST from its master must drop the link
	// and find a new master in its neighborhood.
	pts := linePts(12)
	member := make([]bool, 12)
	quals := make([]float64, 12)
	// Members: 0 (master-grade) and 1 (slave-grade) adjacent; 11 is
	// another master-grade node at the far end.
	member[0], member[1], member[11] = true, true, true
	quals[0], quals[1], quals[11] = 0.9, 0.1, 0.95
	w := newWorld(t, worldSpec{seed: 25, pts: pts, member: member, alg: Hybrid, quals: quals})
	w.joinAll()
	w.run(time(200))
	if w.svs[1].State() != StateSlave || w.svs[1].Master() != 0 {
		t.Fatalf("precondition: node 1 state=%v master=%d, want slave of 0",
			w.svs[1].State(), w.svs[1].Master())
	}
	// Drag the slave to the far end: 8+ hops from master 0, adjacent to 11.
	w.med.SetPos(1, geom.Point{X: pts[11].X - 4, Y: pts[11].Y})
	w.run(time(600))
	if got := w.svs[1].Master(); got != 11 {
		t.Errorf("strayed slave's master = %d, want 11 (re-enslaved nearby)", got)
	}
	checkHybridInvariants(t, w)
}

func TestHybridCaptureReplyPath(t *testing.T) {
	// A low-qualifier node's capture is answered by a higher-qualifier
	// node's capture *reply*, which must trigger enslavement toward the
	// replier — the "new peers always get some feedback" guarantee.
	w := hybridWorld(t, 28, []float64{0.1, 0.9})
	// Only the low node broadcasts (the high node's cycle is disabled),
	// so the enslavement can only happen via the reply path.
	w.svs[1].opt.NoEstablish = true
	w.joinAll()
	w.run(time(120))
	if got := w.svs[0].State(); got != StateSlave {
		t.Fatalf("low node state = %v, want slave via capture reply", got)
	}
	if got := w.svs[0].Master(); got != 1 {
		t.Errorf("master = %d, want 1", got)
	}
	if got := w.svs[1].State(); got != StateMaster {
		t.Errorf("replier state = %v, want master", got)
	}
}

func TestHybridEnslaveRejectWhenFull(t *testing.T) {
	w := hybridWorld(t, 29, []float64{0.9, 0.1})
	w.joinAll()
	w.run(time(60))
	master := w.svs[0]
	if master.State() != StateMaster {
		t.Skip("node 0 did not become master in this topology")
	}
	// Saturate the master with placeholder slaves.
	for p := 10; p < 10+DefaultParams().MaxNSlaves; p++ {
		master.conns[p] = &conn{peer: p, toSlave: true}
	}
	// A fresh candidate must be rejected and return to initial.
	before := master.slaveCount()
	master.onEnslaveReq(5, Msg{Kind: msgEnslaveReq, Qualifier: 0.05})
	w.run(time(5))
	if master.slaveCount() != before {
		t.Error("full master accepted another slave")
	}
}

func TestHybridQualifierTieBreaksById(t *testing.T) {
	w := hybridWorld(t, 26, []float64{0.5, 0.5})
	w.joinAll()
	w.run(time(300))
	s0, s1 := w.svs[0].State(), w.svs[1].State()
	if !(s0 == StateSlave && s1 == StateMaster) {
		t.Errorf("states = %v,%v; want id tie-break making 1 master, 0 slave", s0, s1)
	}
}

func TestHybridQueriesFlowThroughMaster(t *testing.T) {
	// Star: master 0 with slaves 1 and 2. Slave 1 holds the file; a
	// query from slave 2 can only reach it through the master.
	par := DefaultParams()
	w := newWorld(t, worldSpec{
		seed:  90,
		pts:   cliquePts(3),
		alg:   Hybrid,
		par:   par,
		quals: []float64{0.9, 0.1, 0.2},
		files: fileSets(3, 2, map[int][]int{0: {1}, 1: {2}}),
		opts: func(i int, o *Options) {
			o.NoEstablish = true
			o.NoQueries = true
		},
	})
	w.joinAll()
	master, s1, s2 := w.svs[0], w.svs[1], w.svs[2]
	master.state = StateMaster
	s1.state = StateSlave
	s2.state = StateSlave
	master.installConn(conn{peer: 1, toSlave: true, initiator: false})
	s1.installConn(conn{peer: 0, toMaster: true, initiator: true})
	master.installConn(conn{peer: 2, toSlave: true, initiator: false})
	s2.installConn(conn{peer: 0, toMaster: true, initiator: true})

	s2.runQuery() // can only pick file 0 (holds file 1)
	w.run(par.QueryCollect + time(5))
	reqs := w.col.Requests()
	if len(reqs) != 1 || !reqs[0].Found {
		t.Fatalf("requests = %+v, want found via master relay", reqs)
	}
	if reqs[0].MinP2P != 2 {
		t.Errorf("MinP2P = %d, want 2 (slave -> master -> slave)", reqs[0].MinP2P)
	}
	// The master relayed exactly one query copy to slave 1.
	if got := w.col.Received(0, telemetry.Query); got != 1 {
		t.Errorf("master received %d queries, want 1", got)
	}
	if got := w.col.Received(1, telemetry.Query); got != 1 {
		t.Errorf("holder slave received %d queries, want 1", got)
	}
}

func TestHybridInvariantsOnScatteredTopology(t *testing.T) {
	rng := newWorld(t, worldSpec{seed: 1, pts: cliquePts(1), alg: Hybrid, quals: []float64{0}}).s.NewRand()
	pts := make([]geom.Point, 30)
	quals := make([]float64, 30)
	for i := range pts {
		pts[i] = geom.Point{X: 120 + rng.Float64()*60, Y: 120 + rng.Float64()*60}
		quals[i] = rng.Float64()
	}
	w := newWorld(t, worldSpec{seed: 27, pts: pts, alg: Hybrid, quals: quals})
	w.joinAll()
	w.run(time(900))
	checkHybridInvariants(t, w)
	w.checkCapacity(t, DefaultParams())
	settled := 0
	for _, sv := range w.svs {
		if st := sv.State(); st == StateMaster || st == StateSlave {
			settled++
		}
	}
	if settled < len(pts)*3/4 {
		t.Errorf("only %d/%d nodes settled into master/slave roles", settled, len(pts))
	}
}

// quietHybrid builds a clique of hybrid servents whose establishment
// cycles stay off until a role change starts one, so a test can drive a
// handshake by hand.
func quietHybrid(t *testing.T, seed int64, quals []float64) *world {
	t.Helper()
	w := newWorld(t, worldSpec{seed: seed, pts: cliquePts(len(quals)), alg: Hybrid, quals: quals,
		opts: func(_ int, o *Options) { o.NoEstablish = true }})
	w.joinAll()
	return w
}

func TestHybridRevertDropsMeshHandshake(t *testing.T) {
	// A master solicits a mesh link and MAXTIMERMASTER expires before the
	// confirm lands. The late confirm finds a peer that is no longer a
	// master: it must install nothing and tear the responder's half down.
	w := quietHybrid(t, 31, []float64{0.9, 0.8})
	a, b := w.svs[0], w.svs[1]
	a.state, b.state = StateMaster, StateMaster
	a.acceptOffer(b.id, false, true) // accept sent, mesh slot held
	a.noSlaveExpired()
	w.run(time(1))
	if got := a.State(); got != StateInitial {
		t.Fatalf("reverted master is %v, want initial", got)
	}
	if n := a.ConnCount(); n != 0 {
		t.Errorf("reverted master holds %d conns after the late confirm, want 0", n)
	}
	if n := len(a.pending); n != 0 {
		t.Errorf("reverted master holds %d in-flight handshakes, want 0", n)
	}
	if n := b.ConnCount(); n != 0 {
		t.Errorf("responder kept %d conns: the late confirm was not answered with bye", n)
	}
}

func TestHybridSlaveGetsNoMeshFromLateConfirm(t *testing.T) {
	// As above, but the reverted peer enslaves itself to another master
	// before the confirm lands: a slave talks only to its master.
	w := quietHybrid(t, 32, []float64{0.5, 0.8, 0.9})
	a, b, m := w.svs[0], w.svs[1], w.svs[2]
	a.state, b.state, m.state = StateMaster, StateMaster, StateMaster
	a.acceptOffer(b.id, false, true)
	a.noSlaveExpired()
	a.tryEnslaveTo(m.id)
	a.onEnslaveAccept(m.id) // m's accept outruns b's confirm
	w.run(time(1))
	if a.State() != StateSlave || a.Master() != m.id {
		t.Fatalf("state %v master %d, want slave of %d", a.State(), a.Master(), m.id)
	}
	if n := a.masterLinkCount(); n != 0 {
		t.Errorf("slave holds %d mesh links, want 0", n)
	}
	if n := a.ConnCount(); n != 1 {
		t.Errorf("slave holds %d conns, want 1 (its master)", n)
	}
}

func TestHybridReservationSurvivesStaleMeshAccept(t *testing.T) {
	// A reserved peer receives a mesh accept from its prospective master
	// (sent before either changed role). The accept is refused, and the
	// enslavement handshake still completes.
	w := quietHybrid(t, 33, []float64{0.2, 0.9})
	a, m := w.svs[0], w.svs[1]
	m.state = StateMaster
	a.tryEnslaveTo(m.id)
	a.onAccept(m.id, Msg{Kind: msgAccept, Master: true})
	if got := a.State(); got != StateReserved {
		t.Fatalf("after the stale accept the candidate is %v, want reserved", got)
	}
	w.run(time(1))
	if a.State() != StateSlave || a.Master() != m.id {
		t.Errorf("state %v master %d, want slave of %d: the reservation was lost", a.State(), a.Master(), m.id)
	}
}
