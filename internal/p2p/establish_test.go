package p2p

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/sim"
)

func TestBasicPairEstablishesReferences(t *testing.T) {
	w := newWorld(t, worldSpec{seed: 1, pts: cliquePts(2), alg: Basic})
	w.joinAll()
	w.run(time(60))
	// Basic references are asymmetric but both nodes discover each other.
	for i := 0; i < 2; i++ {
		if w.svs[i].ConnCount() != 1 {
			t.Errorf("node %d conns = %d, want 1", i, w.svs[i].ConnCount())
		}
	}
}

func time(sec int) sim.Time { return sim.Time(sec) * sim.Second }

func TestBasicRespectsMaxNConn(t *testing.T) {
	w := newWorld(t, worldSpec{seed: 2, pts: cliquePts(10), alg: Basic})
	w.joinAll()
	w.run(time(120))
	par := DefaultParams()
	w.checkCapacity(t, par)
	for i, sv := range w.svs {
		if sv.ConnCount() != par.MaxNConn {
			t.Errorf("node %d conns = %d, want full table %d in a clique", i, sv.ConnCount(), par.MaxNConn)
		}
	}
}

func TestBasicRepliesEvenWhenFull(t *testing.T) {
	// "Every node that listens to this message answers it": a latecomer
	// joining a saturated clique must still fill its table, because the
	// full nodes keep answering discoveries.
	pts := cliquePts(11)
	w := newWorld(t, worldSpec{seed: 3, pts: pts, alg: Basic})
	for i := 0; i < 10; i++ {
		w.svs[i].Join()
	}
	w.run(time(120))
	for i := 0; i < 10; i++ {
		if w.svs[i].ConnCount() != DefaultParams().MaxNConn {
			t.Skip("clique did not saturate; topology assumption broken")
		}
	}
	w.svs[10].Join()
	w.run(time(60))
	if got := w.svs[10].ConnCount(); got != DefaultParams().MaxNConn {
		t.Errorf("latecomer conns = %d, want %d (full nodes must still reply)",
			got, DefaultParams().MaxNConn)
	}
	w.checkCapacity(t, DefaultParams())
}

func TestRegularPairSymmetric(t *testing.T) {
	w := newWorld(t, worldSpec{seed: 4, pts: cliquePts(2), alg: Regular})
	w.joinAll()
	w.run(time(60))
	if w.svs[0].ConnCount() != 1 || w.svs[1].ConnCount() != 1 {
		t.Fatalf("conns = %d,%d want 1,1", w.svs[0].ConnCount(), w.svs[1].ConnCount())
	}
	w.checkSymmetric(t)
}

func TestRegularCliqueInvariants(t *testing.T) {
	w := newWorld(t, worldSpec{seed: 5, pts: cliquePts(12), alg: Regular})
	w.joinAll()
	w.run(time(300))
	par := DefaultParams()
	w.checkCapacity(t, par)
	w.checkSymmetric(t)
	// The algorithm does not promise that everyone fills: a member can
	// stop one short once every partner in range is full. It does promise
	// that two members with a free slot each, in range of each other, do
	// not stay unlinked; in a clique every pair is in range.
	for i, a := range w.svs {
		for j, b := range w.svs[i+1:] {
			if a.ConnCount() < par.MaxNConn && b.ConnCount() < par.MaxNConn {
				if _, linked := a.conns[b.id]; !linked {
					t.Errorf("nodes %d and %d hold %d and %d of %d conns and are not linked",
						i, i+1+j, a.ConnCount(), b.ConnCount(), par.MaxNConn)
				}
			}
		}
	}
}

func TestRegularExpandingRingConnectsOverDistance(t *testing.T) {
	// Two members 3 ad-hoc hops apart (relays are not overlay members):
	// the first nhops=2 sweep misses, the nhops=4 sweep connects.
	pts := linePts(4)
	member := []bool{true, false, false, true}
	w := newWorld(t, worldSpec{seed: 6, pts: pts, member: member, alg: Regular})
	w.joinAll()
	w.run(time(120))
	if w.svs[0].ConnCount() != 1 || w.svs[3].ConnCount() != 1 {
		t.Fatalf("conns = %d,%d want 1,1 (via expanding ring)",
			w.svs[0].ConnCount(), w.svs[3].ConnCount())
	}
	w.checkSymmetric(t)
}

func TestRegularTimerBacksOffWhenIsolated(t *testing.T) {
	// A lone member has no one to connect to; after each full sweep its
	// retry timer doubles up to MAXTIMER.
	w := newWorld(t, worldSpec{seed: 7, pts: cliquePts(1), alg: Regular})
	w.joinAll()
	w.run(time(1200))
	sv := w.svs[0]
	if sv.ConnCount() != 0 {
		t.Fatal("lone node connected to someone")
	}
	if sv.timer != DefaultParams().MaxTimer {
		t.Errorf("timer = %v, want backed off to MAXTIMER %v", sv.timer, DefaultParams().MaxTimer)
	}
	// Connect-message traffic must flatten out: count broadcasts in two
	// consecutive windows.
	a := w.rts[0].Stats().BcastOrig
	w.run(time(300))
	b := w.rts[0].Stats().BcastOrig - a
	w.run(time(300))
	c := w.rts[0].Stats().BcastOrig - a - b
	if c > b+2 {
		t.Errorf("broadcast rate still rising after backoff: %d then %d", b, c)
	}
}

func TestTimerResetOnNewConnection(t *testing.T) {
	w := newWorld(t, worldSpec{seed: 8, pts: cliquePts(2), alg: Regular})
	w.svs[0].Join()
	// Let node 0 back off alone first.
	w.run(time(400))
	if w.svs[0].timer == DefaultParams().TimerInitial {
		t.Fatal("precondition: timer did not back off")
	}
	w.svs[1].Join()
	// Poll in 1 s steps: right after the connection forms, the timer has
	// been reset to TIMER_INITIAL (it may lawfully double again on later
	// sweeps while the node remains unsatisfied).
	for i := 0; i < 200 && w.svs[0].ConnCount() == 0; i++ {
		w.run(time(1))
	}
	if w.svs[0].ConnCount() != 1 {
		t.Fatal("connection not formed after partner joined")
	}
	if w.svs[0].timer > 2*DefaultParams().TimerInitial {
		t.Errorf("timer = %v right after connect, want reset near %v",
			w.svs[0].timer, DefaultParams().TimerInitial)
	}
}

func TestPingTimeoutClosesConnection(t *testing.T) {
	w := newWorld(t, worldSpec{seed: 9, pts: cliquePts(2), alg: Regular})
	w.joinAll()
	w.run(time(60))
	if w.svs[0].ConnCount() != 1 {
		t.Fatal("precondition: no connection")
	}
	// Node 1 dies abruptly (radio off, no bye).
	w.med.Leave(1)
	w.svs[1].Leave(false)
	par := DefaultParams()
	w.run(2*(par.PingInterval+par.PongTimeout) + time(30))
	if w.svs[0].ConnCount() != 0 {
		t.Error("connection to dead peer not closed by keepalive")
	}
}

func TestMaxDistClosesStretchedConnection(t *testing.T) {
	// Members at the ends of a relay chain, initially adjacent; then the
	// far member moves 8 hops away. Pongs still arrive (relays route)
	// but distance exceeds MAXDIST=6, so the connection must close.
	pts := linePts(10)
	pts[9] = geom.Point{X: pts[0].X + 4, Y: pts[0].Y} // member 9 starts next to member 0
	member := make([]bool, 10)
	member[0], member[9] = true, true
	w := newWorld(t, worldSpec{seed: 10, pts: pts, member: member, alg: Regular})
	w.joinAll()
	w.run(time(60))
	if w.svs[0].ConnCount() != 1 {
		t.Fatal("precondition: no connection while adjacent")
	}
	// Teleport member 9 to the end of the chain: 8 hops from node 0.
	w.med.SetPos(9, geom.Point{X: 5 + 8*8, Y: 150})
	w.run(time(120))
	if w.svs[0].ConnCount() != 0 || w.svs[9].ConnCount() != 0 {
		t.Errorf("stretched connection survived: conns %d,%d",
			w.svs[0].ConnCount(), w.svs[9].ConnCount())
	}
}

func TestRandomAlgorithmLinkMix(t *testing.T) {
	w := newWorld(t, worldSpec{seed: 11, pts: cliquePts(12), alg: Random})
	w.joinAll()
	w.run(time(300))
	par := DefaultParams()
	w.checkCapacity(t, par)
	w.checkSymmetric(t)
	withRandom := 0
	for _, sv := range w.svs {
		if sv.HasRandomConn() {
			withRandom++
		}
	}
	if withRandom == 0 {
		t.Error("no node formed a random connection")
	}
}

func TestRandomPicksFarthestResponder(t *testing.T) {
	// White-box: drive one offer-collection window with responders at
	// different broadcast distances; the farthest must win the accept.
	par := DefaultParams()
	par.MaxNConn = 1
	pts := linePts(7)
	member := []bool{true, true, false, true, false, false, true}
	w := newWorld(t, worldSpec{seed: 12, pts: pts, member: member, alg: Random, par: par})
	for _, i := range []int{0, 1, 3, 6} {
		w.svs[i].Join()
	}
	sv := w.svs[0]
	sv.collecting = true
	sv.offers = []offerInfo{{peer: 1, bcastHops: 1}, {peer: 6, bcastHops: 6}, {peer: 3, bcastHops: 3}}
	sv.endRandomCollect()
	h, ok := sv.pending[6]
	if !ok || !h.random {
		t.Fatalf("pending after collect = %+v; want random handshake with farthest responder 6", sv.pending)
	}
	if len(sv.pending) != 1 {
		t.Errorf("pending = %d handshakes, want 1 (only the farthest)", len(sv.pending))
	}
	// End-to-end: the accept was sent; node 6 confirms; the link forms.
	w.run(time(30))
	if sv.ConnCount() != 1 || !sv.ConnIsRandom(6) {
		t.Errorf("conns = %v (random to 6? %v), want random link to 6", sv.Peers(), sv.ConnIsRandom(6))
	}
}

func TestRandomLinkFormsEndToEnd(t *testing.T) {
	// Black-box companion: with MaxNConn=1, a random link forms to some
	// member via the full solicit/collect/handshake path.
	par := DefaultParams()
	par.MaxNConn = 1
	pts := linePts(7)
	member := []bool{true, true, false, true, false, false, true}
	w := newWorld(t, worldSpec{seed: 12, pts: pts, member: member, alg: Random, par: par})
	for _, i := range []int{0, 1, 3, 6} {
		w.svs[i].Join()
	}
	w.run(time(300))
	sv := w.svs[0]
	if sv.ConnCount() != 1 {
		t.Fatalf("conns = %d, want 1", sv.ConnCount())
	}
	if !sv.ConnIsRandom(sv.Peers()[0]) {
		t.Error("the only link is not flagged random")
	}
}

func TestRandomLinkReplacedAfterLoss(t *testing.T) {
	// With MaxNConn=1 a 4-clique settles into two random-link pairs.
	// Killing node 0's peer plus one member of the other pair leaves two
	// widowed nodes that must re-pair: "whenever it goes down, it must
	// be replaced by another random connection" (§6.1.4).
	par := DefaultParams()
	par.MaxNConn = 1
	w := newWorld(t, worldSpec{seed: 13, pts: cliquePts(4), alg: Random, par: par})
	w.joinAll()
	w.run(time(300))
	sv := w.svs[0]
	if !sv.HasRandomConn() {
		t.Fatal("precondition: no random link formed")
	}
	peer := sv.Peers()[0]
	victim := -1
	for i := 1; i < 4; i++ {
		if i != peer {
			victim = i
			break
		}
	}
	for _, dead := range []int{peer, victim} {
		w.med.Leave(dead)
		w.svs[dead].Leave(false)
	}
	w.run(time(600))
	if !sv.HasRandomConn() {
		t.Fatal("random connection not replaced after loss")
	}
	if got := sv.Peers()[0]; got == peer || got == victim {
		t.Errorf("replacement random link points at dead node %d", got)
	}
}

func TestRejoinedOfferWindowRunsFull(t *testing.T) {
	// A node that leaves and rejoins inside OfferWindow must not have the
	// earlier incarnation's window end close the collection it opens next.
	w := newWorld(t, worldSpec{seed: 17, pts: cliquePts(2), alg: Random,
		opts: func(i int, o *Options) { o.NoEstablish = true }})
	w.joinAll()
	sv := w.svs[0]
	sv.startRandomSolicit()
	w.run(time(1))
	sv.Leave(false)
	sv.Join()
	w.run(time(1))
	start := w.s.Now()
	sv.startRandomSolicit()
	w.run(sv.par.OfferWindow - 1)
	if !sv.collecting {
		t.Fatalf("window opened at %v closed by %v, before %v", start, w.s.Now(), start+sv.par.OfferWindow)
	}
	w.run(1)
	if sv.collecting {
		t.Errorf("window opened at %v still collecting at %v", start, w.s.Now())
	}
}

func TestLeaveGracefulTearsDownBothSides(t *testing.T) {
	w := newWorld(t, worldSpec{seed: 14, pts: cliquePts(2), alg: Regular})
	w.joinAll()
	w.run(time(60))
	if w.svs[1].ConnCount() != 1 {
		t.Fatal("precondition failed")
	}
	w.svs[0].Leave(true)
	w.run(time(5))
	if w.svs[1].ConnCount() != 0 {
		t.Error("bye did not tear down the peer's half")
	}
	if w.svs[0].ConnCount() != 0 || w.svs[0].Joined() {
		t.Error("leaver retained state")
	}
}

func TestRejoinAfterLeave(t *testing.T) {
	w := newWorld(t, worldSpec{seed: 15, pts: cliquePts(2), alg: Regular})
	w.joinAll()
	w.run(time(60))
	w.svs[0].Leave(true)
	w.run(time(30))
	w.svs[0].Join()
	w.run(time(120))
	if w.svs[0].ConnCount() != 1 || w.svs[1].ConnCount() != 1 {
		t.Errorf("conns after rejoin = %d,%d want 1,1",
			w.svs[0].ConnCount(), w.svs[1].ConnCount())
	}
	w.checkSymmetric(t)
}

func TestRingRadiusProgression(t *testing.T) {
	// The paper's radius sequence: 2, 4, 6, 0, 2, ... with the timer
	// doubling exactly on the 0 step.
	w := newWorld(t, worldSpec{seed: 80, pts: cliquePts(1), alg: Regular,
		opts: func(i int, o *Options) { o.NoEstablish = true }})
	w.joinAll()
	sv := w.svs[0]
	sv.nhops = sv.par.NHopsInitial
	sv.timer = sv.par.TimerInitial
	wantHops := []int{2, 4, 6, 0, 2, 4, 6, 0}
	for i, want := range wantHops {
		if sv.nhops != want {
			t.Fatalf("step %d: nhops = %d, want %d", i, sv.nhops, want)
		}
		before := sv.timer
		sv.cycleStep()
		if want == 0 && sv.timer != 2*before {
			t.Errorf("step %d: timer %v after 0-step, want doubled %v", i, sv.timer, 2*before)
		}
		if want != 0 && sv.timer != before {
			t.Errorf("step %d: timer changed on non-0 step", i)
		}
		sv.cycleEv.Cancel() // drive the steps manually
	}
	// The timer caps at MAXTIMER.
	sv.timer = sv.par.MaxTimer
	sv.nhops = 0
	sv.cycleStep()
	sv.cycleEv.Cancel()
	if sv.timer != sv.par.MaxTimer {
		t.Errorf("timer %v exceeded MAXTIMER", sv.timer)
	}
}

func TestMeshInvariantsOnRandomTopology(t *testing.T) {
	// 25 members scattered over a 60x60 box; after settling, all
	// capacity and symmetry invariants must hold for each algorithm.
	for _, alg := range []Algorithm{Basic, Regular, Random} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			rngPts := sim.New(100 + int64(alg)).NewRand()
			pts := make([]geom.Point, 25)
			for i := range pts {
				pts[i] = geom.Point{X: 120 + rngPts.Float64()*60, Y: 120 + rngPts.Float64()*60}
			}
			w := newWorld(t, worldSpec{seed: 16 + int64(alg), pts: pts, alg: alg})
			w.joinAll()
			w.run(time(600))
			par := DefaultParams()
			w.checkCapacity(t, par)
			if alg != Basic {
				w.checkSymmetric(t)
			}
			connected := 0
			for _, sv := range w.svs {
				if sv.ConnCount() > 0 {
					connected++
				}
			}
			if connected < len(pts)/2 {
				t.Errorf("only %d/%d nodes have any connection", connected, len(pts))
			}
		})
	}
}
