package p2p

import (
	"testing"

	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
)

// pairWorld builds two adjacent Regular servents with a pre-installed
// symmetric connection (node 0 initiator).
func pairWorld(t *testing.T, seed int64) *world {
	t.Helper()
	w := newWorld(t, worldSpec{
		seed: seed,
		pts:  cliquePts(2),
		alg:  Regular,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	forceLink(w.svs[0], w.svs[1], false)
	return w
}

func TestKeepaliveRoundTrips(t *testing.T) {
	w := pairWorld(t, 50)
	par := DefaultParams()
	w.run(3*par.PingInterval + time(5))
	// Only the initiator pings; the responder answers.
	if got := w.col.Received(1, telemetry.Ping); got < 2 {
		t.Errorf("responder received %d pings, want >= 2", got)
	}
	if got := w.col.Received(0, telemetry.Ping); got != 0 {
		t.Errorf("initiator received %d pings, want 0 (one-sided probing)", got)
	}
	if got := w.col.Received(0, telemetry.Pong); got < 2 {
		t.Errorf("initiator received %d pongs, want >= 2", got)
	}
	// The connection is still alive.
	if w.svs[0].ConnCount() != 1 || w.svs[1].ConnCount() != 1 {
		t.Error("healthy connection torn down")
	}
}

func TestStalePongSeqIgnored(t *testing.T) {
	w := pairWorld(t, 51)
	sv := w.svs[0]
	c := sv.conns[1]
	// Fabricate an awaited probe, then deliver a pong with a stale seq.
	c.awaitPong = true
	c.awaitingSeq = 7
	sv.onPong(1, Msg{Kind: msgPong, Seq: 3}, 1)
	if !c.awaitPong {
		t.Error("stale pong cleared the awaiting flag")
	}
	sv.onPong(1, Msg{Kind: msgPong, Seq: 7}, 1)
	if c.awaitPong {
		t.Error("matching pong not accepted")
	}
}

func TestPongFromStrangerIgnored(t *testing.T) {
	w := pairWorld(t, 52)
	sv := w.svs[0]
	before := sv.ConnCount()
	sv.onPong(9, Msg{Kind: msgPong, Seq: 1}, 1) // no such connection
	if sv.ConnCount() != before {
		t.Error("stranger pong mutated connections")
	}
}

func TestPingFromStrangerGetsBye(t *testing.T) {
	// A symmetric-algorithm node receiving a ping for a connection it
	// does not have must answer with a bye so the peer drops its stale
	// half. Simulate: node 1 keeps a conn to 0, but 0 has no state.
	w := newWorld(t, worldSpec{
		seed: 53,
		pts:  cliquePts(2),
		alg:  Regular,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	// Fill node 0 with placeholder connections so it cannot re-offer a
	// legitimate connection after the bye (the protocol otherwise heals
	// the pair immediately, which is correct but not what this test
	// isolates).
	for p := 10; p < 13; p++ {
		w.svs[0].conns[p] = &conn{peer: p}
	}
	// Install only node 1's half (initiator so it pings).
	w.svs[1].installConn(conn{peer: 0, initiator: true})
	par := DefaultParams()
	w.run(par.PingInterval + time(5))
	if got := w.svs[1].ConnCount(); got != 0 {
		t.Errorf("stale half-connection survived: %d conns", got)
	}
	if got := w.col.Received(1, telemetry.Bye); got == 0 {
		t.Error("no bye received by the stale side")
	}
}

func TestBasicPingStateless(t *testing.T) {
	// In Basic, the pinged node holds no connection state yet answers.
	w := newWorld(t, worldSpec{
		seed: 54,
		pts:  cliquePts(2),
		alg:  Basic,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	// Asymmetric reference: only node 0 knows node 1.
	w.svs[0].installConn(conn{peer: 1, initiator: true})
	par := DefaultParams()
	w.run(2*par.PingInterval + time(5))
	if w.svs[0].ConnCount() != 1 {
		t.Error("basic reference dropped despite responsive peer")
	}
	if got := w.col.Received(0, telemetry.Pong); got == 0 {
		t.Error("stateless peer did not pong")
	}
}

func TestHandshakeTimeoutReleasesSlot(t *testing.T) {
	// Node 0 sends an accept into the void (peer leaves right away);
	// after HandshakeWait the pending slot must be reusable.
	w := newWorld(t, worldSpec{
		seed: 55,
		pts:  cliquePts(3),
		alg:  Regular,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	sv := w.svs[0]
	w.med.Leave(1) // peer 1 is unreachable
	sv.acceptOffer(1, false, false)
	if len(sv.pending) != 1 {
		t.Fatal("no pending handshake")
	}
	w.run(DefaultParams().HandshakeWait + time(20))
	if len(sv.pending) != 0 {
		t.Error("pending handshake not released after timeout")
	}
}

// A handshake's timeout names it by serial: a timeout that outlived its
// handshake must leave a later one with the same peer in flight, and the
// later one's own timeout must still release it.
func TestStaleHandshakeTimeoutSparesItsSuccessor(t *testing.T) {
	w := newWorld(t, worldSpec{
		seed: 59,
		pts:  cliquePts(2),
		alg:  Regular,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	sv := w.svs[0]
	w.med.Leave(1) // peer 1 is unreachable: nothing answers the accepts
	sv.acceptOffer(1, false, false)
	first := sv.pending[1]
	sv.dropPending()
	sv.acceptOffer(1, false, false)
	handshakeTimeout(sim.Arg{I0: 1, I1: first.serial, X: sv}) // the first one's, as if it had escaped the cancel
	if _, ok := sv.pending[1]; !ok {
		t.Fatal("a stale timeout released the handshake that succeeded its own")
	}
	w.run(DefaultParams().HandshakeWait + time(1))
	if _, ok := sv.pending[1]; ok {
		t.Error("the handshake's own timeout did not release it")
	}
}

func TestRejectReleasesSlot(t *testing.T) {
	w := newWorld(t, worldSpec{
		seed: 56,
		pts:  cliquePts(2),
		alg:  Regular,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	sv := w.svs[0]
	// Fill node 1 so it rejects.
	for p := 10; p < 13; p++ {
		w.svs[1].conns[p] = &conn{peer: p}
	}
	sv.acceptOffer(1, false, false)
	w.run(time(2))
	if len(sv.pending) != 0 {
		t.Error("reject did not release the pending slot")
	}
	if sv.ConnCount() != 0 {
		t.Error("connection formed despite reject")
	}
}

func TestStrayConfirmGetsBye(t *testing.T) {
	// A confirm for a handshake we no longer track must trigger a bye
	// so the responder tears down its half.
	w := newWorld(t, worldSpec{
		seed: 57,
		pts:  cliquePts(2),
		alg:  Regular,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	// Block node 0 from re-offering after the bye (see
	// TestPingFromStrangerGetsBye).
	for p := 10; p < 13; p++ {
		w.svs[0].conns[p] = &conn{peer: p}
	}
	// Node 1 has installed its half (as if it accepted long ago) and
	// sends the final handshake step; node 0 no longer tracks it.
	w.svs[1].installConn(conn{peer: 0, initiator: false})
	w.svs[1].send(0, Msg{Kind: msgConfirm})
	w.run(time(2))
	if w.svs[1].ConnCount() != 0 {
		t.Error("responder's half not torn down after stray confirm")
	}
}

func TestMessageClassification(t *testing.T) {
	cases := map[telemetry.Class][]netif.MsgKind{
		telemetry.Connect: {
			msgDiscover, msgReply, msgSolicit, msgOffer, msgAccept,
			msgConfirm, msgReject, msgCapture, msgEnslaveReq,
			msgEnslaveAccept, msgEnslaveConfirm, msgEnslaveReject,
		},
		telemetry.Ping:     {msgPing},
		telemetry.Pong:     {msgPong},
		telemetry.Query:    {msgQuery},
		telemetry.QueryHit: {msgQueryHit},
		telemetry.Bye:      {msgBye},
	}
	for class, kinds := range cases {
		for _, k := range kinds {
			if got := classOf(k); got != class {
				t.Errorf("classOf(%v) = %v, want %v", k, got, class)
			}
			if sizeOf(k) <= 0 {
				t.Errorf("sizeOf(%v) not positive", k)
			}
		}
	}
}

func TestClassOfUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("classOf(unknown) did not panic")
		}
	}()
	classOf(netif.MsgKind(42))
}

// A closed connection's record goes to the spare list, and the next
// connection takes it. Close the pair while the initiator's ping and the
// responder's deadline are armed, re-establish it with the same peer a
// third of a ping period in, and run past both instants the old life
// armed: the new connection must survive in the same records, and the
// responder must see the new life's pings only, one per PingInterval
// from the reconnect.
func TestRecycledConnIgnoresItsPastLife(t *testing.T) {
	par := DefaultParams()
	par.MaxNConn = 1 // the cycles a close starts find the table full again and stop
	w := newWorld(t, worldSpec{
		seed: 58,
		pts:  cliquePts(2),
		alg:  Regular,
		par:  par,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	a, b := w.svs[0], w.svs[1]
	forceLink(a, b, false)
	w.run(par.PingInterval / 3)
	ca, cb := a.conns[1], b.conns[0]
	if !ca.pingEv.Pending() || !cb.deadlineEv.Pending() {
		t.Fatal("precondition: ping or deadline not armed")
	}
	a.closeConn(1, false)
	b.closeConn(0, false)
	forceLink(a, b, false)
	if a.conns[1] != ca || b.conns[0] != cb {
		t.Fatal("the reconnect did not reuse the closed records")
	}
	re := w.s.Now()
	pings := w.col.Received(1, telemetry.Ping)
	// The old life armed a ping at PingInterval and a deadline at
	// 2·(PingInterval+PongTimeout); four rounds of the new one pass both.
	for k := 1; k <= 4; k++ {
		w.s.Run(re + sim.Time(k)*par.PingInterval - time(1))
		if got := w.col.Received(1, telemetry.Ping) - pings; got != uint64(k-1) {
			t.Fatalf("%v after the reconnect: %d pings, want %d", w.s.Now()-re, got, k-1)
		}
		if a.conns[1] != ca || b.conns[0] != cb || ca.since != re || cb.since != re {
			t.Fatalf("%v after the reconnect: the new connection did not survive", w.s.Now()-re)
		}
	}
}
