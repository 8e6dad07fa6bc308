package route

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/sim"
)

// testPlane returns a plane over a fresh medium of nodes nodes.
func testPlane(s *sim.Sim, nodes int) *Plane {
	med, err := radio.NewMedium(s, radio.Config{Arena: geom.Rect{W: 100, H: 100}, Range: 10, NumNodes: nodes})
	if err != nil {
		panic(err)
	}
	return NewPlane(s, med)
}

// cacheFor is the default cache bound with the given mark lifetime.
func cacheFor(timeout sim.Time) CacheConfig {
	cfg := DefaultCacheConfig()
	cfg.Timeout = timeout
	return cfg
}

func testCore(seed int64) (*Core, *sim.Sim) {
	s := sim.New(seed)
	return NewCore(0, testPlane(s, 1)), s
}

func TestDupCacheSeenRespectsTimeout(t *testing.T) {
	c, s := testCore(1)
	dc := NewDupCache(c, netif.PktBcast, cacheFor(10*sim.Second))
	k := Key{Origin: 3, ID: 7}
	if dc.Seen(k) {
		t.Fatal("unmarked key reported seen")
	}
	dc.Mark(k)
	if !dc.Seen(k) {
		t.Fatal("fresh mark not seen")
	}
	s.Run(10 * sim.Second) // clock stands at the horizon even with no events
	if dc.Seen(k) {
		t.Fatal("entry still seen at exactly its timeout")
	}
}

// TestDupCacheExpiryIsExact pins that Len counts live marks only, at any
// instant: a mark leaves the count at exactly its timeout, with no
// backlog of expired entries waiting for a sweep.
func TestDupCacheExpiryIsExact(t *testing.T) {
	c, s := testCore(2)
	const timeout = 5 * sim.Second
	dc := NewDupCache(c, netif.PktBcast, cacheFor(timeout))
	for i := 0; i < 8; i++ {
		dc.Mark(Key{Origin: 1, ID: uint32(i)})
	}
	s.Run(sim.Second)
	dc.Mark(Key{Origin: 2, ID: 0})
	s.Run(timeout - 1)
	if got := dc.Len(); got != 9 {
		t.Fatalf("Len = %d one tick before the first timeout, want 9", got)
	}
	s.Run(timeout)
	if got := dc.Len(); got != 1 {
		t.Fatalf("Len = %d at the first marks' timeout, want 1 (the later mark)", got)
	}
	if dc.Seen(Key{Origin: 1, ID: 0}) || !dc.Seen(Key{Origin: 2, ID: 0}) {
		t.Fatal("expiry dropped a fresh mark or kept an expired one")
	}
	s.Run(timeout + sim.Second)
	if got := dc.Len(); got != 0 {
		t.Fatalf("Len = %d after every timeout, want 0", got)
	}
}

// Every node's cache of one family declares the same kind; a second
// family declaring it panics, and PktNone declares nothing.
func TestDupCacheKindDeclaredByOneFamily(t *testing.T) {
	pl := testPlane(sim.New(1), 2)
	a, b := NewCore(0, pl), NewCore(1, pl)
	cfg := cacheFor(sim.Second)
	NewDupCache(a, netif.PktRREQ, cfg)
	NewDupCache(b, netif.PktRREQ, cfg)
	NewDupCache(a, netif.PktNone, cfg)
	NewDupCache(b, netif.PktNone, cfg)
	if pl.absorb[netif.PktNone] != nil || pl.absorb[netif.PktRREQ] != pl.dups[0] {
		t.Fatalf("declared %v, want only PktRREQ's family", pl.absorb)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second family declared PktRREQ without a panic")
		}
	}()
	NewDupCache(a, netif.PktRREQ, cfg)
}

func TestDupCacheHardCapEvictsOldestDeterministically(t *testing.T) {
	c, _ := testCore(3)
	dc := NewDupCache(c, netif.PktBcast, CacheConfig{Timeout: 60 * sim.Minute, HardCap: 8})
	// All marks at t=0: nothing ever expires, so crossing the hard cap
	// must evict fresh entries down to 3/4 of the cap.
	for i := 0; i < 100; i++ {
		dc.Mark(Key{Origin: 1, ID: uint32(i)})
	}
	if got := dc.Len(); got > 8 {
		t.Fatalf("Len = %d, want <= HardCap 8", got)
	}
	// Same-timestamp eviction breaks ties by (origin, id), so the
	// surviving set is exactly the highest IDs — rerunning is identical.
	if !dc.Seen(Key{Origin: 1, ID: 99}) {
		t.Fatal("newest-ranked entry evicted")
	}
	if dc.Seen(Key{Origin: 1, ID: 0}) {
		t.Fatal("oldest-ranked entry survived eviction")
	}
}

func TestPendingPushRespectsCap(t *testing.T) {
	c, _ := testCore(3)
	p := NewPending[int](c, 2)
	d := p.Start(5)
	if !p.Push(d, 10) || !p.Push(d, 11) {
		t.Fatal("pushes under cap rejected")
	}
	if p.Push(d, 12) {
		t.Fatal("push over cap accepted")
	}
	if len(d.Queue) != 2 {
		t.Fatalf("queue = %v, want 2 entries", d.Queue)
	}
}

func TestPendingTakeCancelsTimer(t *testing.T) {
	c, s := testCore(4)
	p := NewPending[int](c, 4)
	d := p.Start(5)
	fired := false
	d.Timer = s.ScheduleArg(sim.Second, func(sim.Arg) { fired = true }, sim.Arg{})
	got, ok := p.Take(5)
	if !ok || got != d {
		t.Fatal("Take did not return the live entry")
	}
	s.Run(2 * sim.Second)
	if fired {
		t.Fatal("Take left the retry timer armed")
	}
	if _, ok := p.Get(5); ok {
		t.Fatal("entry still registered after Take")
	}
}

// A discovery one router recycles comes back clean to another router
// of the plane: its queue empty with its capacity kept, and no count,
// repair flag or timer of its last search.
func TestPendingRecycledToAnotherRouter(t *testing.T) {
	s := sim.New(1)
	pl := testPlane(s, 2)
	a, b := NewPending[int](NewCore(0, pl), 4), NewPending[int](NewCore(1, pl), 4)
	d := a.Start(1)
	a.Push(d, 10)
	a.Push(d, 11)
	d.TTL, d.Retries, d.Repair = 8, 2, true
	d.Timer = s.ScheduleArg(sim.Second, func(sim.Arg) {}, sim.Arg{})
	a.Take(1)
	a.Recycle(d)
	e := b.Start(0)
	if e != d {
		t.Fatal("the second router did not reuse the discovery the first recycled")
	}
	if len(e.Queue) != 0 || cap(e.Queue) < 2 || e.TTL != 0 || e.Retries != 0 || e.Repair || e.Timer != (sim.Handle{}) {
		t.Fatalf("reused discovery = %+v (queue cap %d), want an empty queue of cap >= 2 and zero TTL, Retries, Repair and Timer", *e, cap(e.Queue))
	}
}

func TestCoreSelfDeliverIsAsynchronous(t *testing.T) {
	c, s := testCore(5)
	var got []int
	c.OnUnicast(func(d netif.Delivery) { got = append(got, d.Hops) })
	c.Send(0, 10, netif.TestMsg(1))
	if len(got) != 0 {
		t.Fatal("self delivery ran synchronously")
	}
	s.Run(sim.Second)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("deliveries = %v, want one at 0 hops", got)
	}
	if c.Stats().Delivered != 1 {
		t.Fatalf("Delivered = %d, want 1", c.Stats().Delivered)
	}
}
