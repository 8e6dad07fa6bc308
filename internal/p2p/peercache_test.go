package p2p

import (
	"testing"

	"manetp2p/internal/sim"
)

func TestPeerCacheReconnectsWithoutBroadcast(t *testing.T) {
	par := DefaultParams()
	par.PeerCache = PeerCacheConfig{Enabled: true}
	par.MaxNConn = 1 // the pair saturates, so no background soliciting
	w := newWorld(t, worldSpec{seed: 70, pts: cliquePts(2), alg: Regular, par: par})
	w.joinAll()
	w.run(time(90))
	if w.svs[0].ConnCount() != 1 {
		t.Fatal("precondition: pair not connected")
	}
	bcastBefore := w.rts[0].Stats().BcastOrig + w.rts[1].Stats().BcastOrig
	// Tear the link down gracefully; both sides should reconnect via
	// their caches without a single new discovery broadcast.
	w.svs[0].closeConn(1, true)
	w.run(time(120))
	if w.svs[0].ConnCount() != 1 {
		t.Fatal("pair did not reconnect")
	}
	bcastAfter := w.rts[0].Stats().BcastOrig + w.rts[1].Stats().BcastOrig
	// Allow pings' route discoveries etc. — but no p2p solicit floods.
	// Router-level broadcasts also include RREQs, so compare solicit
	// deliveries instead: broadcast count must not grow by more than
	// the routing layer's needs (<= 2).
	if bcastAfter-bcastBefore > 2 {
		t.Errorf("broadcasts grew by %d during cached reconnect, want <= 2",
			bcastAfter-bcastBefore)
	}
}

func TestPeerCacheDisabledStillBroadcasts(t *testing.T) {
	w := newWorld(t, worldSpec{seed: 71, pts: cliquePts(2), alg: Regular})
	w.joinAll()
	w.run(time(90))
	sv := w.svs[0]
	if sv.peerCache != nil && len(sv.peerCache) > 0 {
		t.Error("peer cache populated while disabled")
	}
	if sv.tryCachedPeers() {
		t.Error("tryCachedPeers returned true while disabled")
	}
}

func TestPeerCacheEviction(t *testing.T) {
	par := DefaultParams()
	par.PeerCache = PeerCacheConfig{Enabled: true, Size: 3}
	w := newWorld(t, worldSpec{
		seed: 72, pts: cliquePts(1), alg: Regular, par: par,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	sv := w.svs[0]
	// Remember 5 peers with increasing times: only the 3 freshest stay.
	for p := 1; p <= 5; p++ {
		w.run(time(1))
		sv.rememberPeer(p)
	}
	if len(sv.peerCache) != 3 {
		t.Fatalf("cache size = %d, want 3", len(sv.peerCache))
	}
	for _, p := range []int{3, 4, 5} {
		if _, ok := sv.peerCache[p]; !ok {
			t.Errorf("fresh peer %d evicted", p)
		}
	}
	ids := sv.cachedPeerIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("cachedPeerIDs not sorted: %v", ids)
		}
	}
}

func TestPeerCacheTTLExpiry(t *testing.T) {
	par := DefaultParams()
	par.PeerCache = PeerCacheConfig{Enabled: true, TTL: 30 * sim.Second}
	w := newWorld(t, worldSpec{
		seed: 73, pts: cliquePts(2), alg: Regular, par: par,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	sv := w.svs[0]
	sv.rememberPeer(1)
	w.run(time(60)) // past TTL
	if sv.tryCachedPeers() {
		t.Error("expired cache entry was tried")
	}
	if _, ok := sv.peerCache[1]; ok {
		t.Error("expired entry not purged")
	}
}

func TestPeerCacheRateLimitAtTimeZero(t *testing.T) {
	// Regression: the try rate-limit used tried != 0 as its "ever tried"
	// sentinel, so a solicitation sent at t=0 was treated as never sent
	// and the peer was hammered again on the very next step.
	par := DefaultParams()
	par.PeerCache = PeerCacheConfig{Enabled: true, TTL: 300 * sim.Second}
	w := newWorld(t, worldSpec{
		seed: 74, pts: cliquePts(2), alg: Regular, par: par,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	sv := w.svs[0]
	sv.rememberPeer(1)
	sv.peerCache[1].seen = 0 // pretend contact happened at t=0 too

	if w.s.Now() != 0 {
		t.Fatalf("precondition: now = %v, want 0", w.s.Now())
	}
	if !sv.tryCachedPeers() {
		t.Fatal("first try at t=0 did not solicit")
	}
	e := sv.peerCache[1]
	if !e.hasTried || e.tried != 0 {
		t.Fatalf("entry after t=0 try: hasTried=%v tried=%v", e.hasTried, e.tried)
	}
	// Drop the handshake reservation so only the rate limit can block a
	// second solicitation.
	for p, h := range sv.pending { // commutative: cancels every entry
		h.timeout.Cancel()
		delete(sv.pending, p)
	}
	if sv.tryCachedPeers() {
		t.Error("peer re-solicited within TTL/4 of a t=0 try")
	}
	// Past the TTL/4 rest period the peer is fair game again.
	w.run(par.PeerCache.WithDefaults().TTL/4 + sim.Second)
	for p, h := range sv.pending { // commutative: cancels every entry
		h.timeout.Cancel()
		delete(sv.pending, p)
	}
	// The t=0 solicit may have completed a handshake meanwhile; drop the
	// link so only the rate limit decides.
	if c, ok := sv.conns[1]; ok {
		c.pingEv.Cancel()
		c.deadlineEv.Cancel()
		delete(sv.conns, 1)
	}
	if !sv.tryCachedPeers() {
		t.Error("peer not re-solicited after the rest period")
	}
}

// Regression (ISSUE 8): the eviction victim among equal-seen entries was
// chosen by map-iteration order, so an uninterrupted run and a resumed
// run (fresh process, fresh map layout) could evict different peers and
// silently diverge. Ties must break by ascending peer id. Each trial
// uses a fresh map so Go's per-iteration randomization gets every chance
// to expose an order-dependent victim; pre-fix this fails with
// probability 1 - (1/4)^48.
func TestPeerCacheEvictionDeterministic(t *testing.T) {
	par := DefaultParams()
	par.PeerCache = PeerCacheConfig{Enabled: true, Size: 4}
	w := newWorld(t, worldSpec{
		seed: 75, pts: cliquePts(1), alg: Regular, par: par,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	sv := w.svs[0]
	if w.s.Now() != 0 {
		t.Fatalf("precondition: now = %v, want 0", w.s.Now())
	}
	for trial := 0; trial < 48; trial++ {
		sv.peerCache = nil // fresh map: fresh iteration order
		for _, p := range []int{7, 3, 9, 5} {
			sv.rememberPeer(p) // all at t=0: four-way seen tie
		}
		sv.rememberPeer(11) // full cache: one of the tied four is evicted
		if _, gone := sv.peerCache[3]; gone {
			t.Fatalf("trial %d: tie-break evicted %v, want lowest id 3 gone",
				trial, sv.cachedPeerIDs())
		}
		want := []int{5, 7, 9, 11}
		ids := sv.cachedPeerIDs()
		for i, p := range want {
			if i >= len(ids) || ids[i] != p {
				t.Fatalf("trial %d: cache = %v, want %v", trial, ids, want)
			}
		}
	}
}

// Alloc guard (ISSUE 8): the peer-cache scan a cache-enabled cycle step
// performs (ringSolicit -> tryCachedPeers -> cachedPeerIDs) must not
// allocate once the servent's scratch buffer is warm — it runs every
// establishment step for the whole simulation. The step's other halves
// (event re-scheduling, broadcast/unicast send) are covered by the
// guards in internal/sim and internal/radio.
func TestPeerCacheCycleStepScanZeroAllocs(t *testing.T) {
	par := DefaultParams()
	par.PeerCache = PeerCacheConfig{Enabled: true, Size: 8}
	w := newWorld(t, worldSpec{
		seed: 76, pts: cliquePts(1), alg: Regular, par: par,
		opts: func(i int, o *Options) { o.NoEstablish = true },
	})
	w.joinAll()
	sv := w.svs[0]
	now := w.s.Now()
	for p := 1; p <= 8; p++ {
		sv.rememberPeer(p)
		// Rate-limit every entry so the scan walks the whole cache and
		// sends nothing — the steady state of a saturated servent.
		sv.peerCache[p].tried = now
		sv.peerCache[p].hasTried = true
	}
	sv.cachedPeerIDs() // warm the scratch buffer
	allocs := testing.AllocsPerRun(1000, func() {
		if sv.tryCachedPeers() {
			t.Fatal("rate-limited entry was solicited")
		}
	})
	if allocs != 0 {
		t.Errorf("cycle-step cache scan allocates %.1f allocs/op, want 0", allocs)
	}
}
