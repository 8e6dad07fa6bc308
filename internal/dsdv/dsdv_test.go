package dsdv

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

type testNet struct {
	s       *sim.Sim
	med     *radio.Medium
	routers []*Router
	unicast [][]netif.Delivery
	bcasts  [][]netif.Delivery
	failed  [][]int
}

func newTestNet(t *testing.T, seed int64, pts []geom.Point, cfg Config) *testNet {
	t.Helper()
	s := sim.New(seed)
	med, err := radio.NewMedium(s, radio.Config{
		Arena:    geom.Rect{W: 200, H: 200},
		Range:    10,
		NumNodes: len(pts),
		Latency:  2 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := route.NewPlane(s, med.NumNodes())
	n := &testNet{
		s:       s,
		med:     med,
		routers: make([]*Router, len(pts)),
		unicast: make([][]netif.Delivery, len(pts)),
		bcasts:  make([][]netif.Delivery, len(pts)),
		failed:  make([][]int, len(pts)),
	}
	for i, p := range pts {
		i := i
		r := NewRouter(i, pl, med, cfg)
		r.OnUnicast(func(d netif.Delivery) { n.unicast[i] = append(n.unicast[i], d) })
		r.OnBroadcast(func(d netif.Delivery) { n.bcasts[i] = append(n.bcasts[i], d) })
		r.OnSendFailed(func(dst int, _ netif.Msg) { n.failed[i] = append(n.failed[i], dst) })
		med.Join(i, p, r.HandleFrame)
		n.routers[i] = r
	}
	return n
}

func line(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: 5 + 8*float64(i), Y: 50}
	}
	return pts
}

// settle runs long enough for routes to propagate end to end: the table
// spreads one hop per update period.
func settle(n *testNet, hops int) {
	n.s.Run(n.s.Now() + DefaultConfig().UpdatePeriod*sim.Time(hops+2))
}

func TestTablesConvergeOnChain(t *testing.T) {
	n := newTestNet(t, 1, line(5), Config{})
	settle(n, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				continue
			}
			want := j - i
			if want < 0 {
				want = -want
			}
			got, ok := n.routers[i].HopsTo(j)
			if !ok || got != want {
				t.Errorf("HopsTo(%d->%d) = (%d,%v), want (%d,true)", i, j, got, ok, want)
			}
		}
	}
}

func TestDataDeliveredProactively(t *testing.T) {
	n := newTestNet(t, 2, line(5), Config{})
	settle(n, 5)
	n.routers[0].Send(4, 100, netif.TestMsg(1))
	n.s.Run(n.s.Now() + sim.Second)
	got := n.unicast[4]
	if len(got) != 1 || got[0].Hops != 4 || got[0].From != 0 {
		t.Fatalf("deliveries = %+v, want one from 0 at 4 hops", got)
	}
}

func TestSendBeforeConvergenceParksThenDelivers(t *testing.T) {
	// A send right at t=0 has no route yet; the settling buffer must
	// hold it until advertisements arrive, then deliver.
	n := newTestNet(t, 3, line(3), Config{SettlingTime: 40 * sim.Second})
	n.routers[0].Send(2, 10, netif.TestMsg(2))
	n.s.Run(n.s.Now() + 50*sim.Second)
	if len(n.unicast[2]) != 1 {
		t.Fatalf("deliveries = %d, want 1 (parked packet must flush)", len(n.unicast[2]))
	}
}

func TestUnreachableFailsAfterSettling(t *testing.T) {
	pts := append(line(2), geom.Point{X: 190, Y: 190})
	n := newTestNet(t, 4, pts, Config{SettlingTime: 10 * sim.Second})
	n.routers[0].Send(2, 10, netif.TestMsg(3))
	n.s.Run(n.s.Now() + sim.Minute)
	if len(n.failed[0]) != 1 || n.failed[0][0] != 2 {
		t.Fatalf("failed = %v, want [2]", n.failed[0])
	}
	if len(n.unicast[2]) != 0 {
		t.Error("unreachable node received data")
	}
}

func TestBrokenRouteHealsViaNewAdvertisements(t *testing.T) {
	// Diamond 0-1-3 / 0-2-3: kill the active relay; after a timeout the
	// route re-forms through the other relay.
	pts := []geom.Point{
		{X: 50, Y: 50}, {X: 58, Y: 44}, {X: 58, Y: 56}, {X: 66, Y: 50},
	}
	n := newTestNet(t, 5, pts, Config{})
	settle(n, 3)
	n.routers[0].Send(3, 10, netif.TestMsg(4))
	n.s.Run(n.s.Now() + sim.Second)
	if len(n.unicast[3]) != 1 {
		t.Fatal("initial delivery failed")
	}
	relay := 1
	if n.routers[2].Stats().DataForwarded > 0 {
		relay = 2
	}
	n.med.Leave(relay)
	// Wait out the route timeout plus a couple of update periods.
	n.s.Run(n.s.Now() + DefaultConfig().RouteTimeout + 4*DefaultConfig().UpdatePeriod)
	n.routers[0].Send(3, 10, netif.TestMsg(5))
	n.s.Run(n.s.Now() + 30*sim.Second)
	if len(n.unicast[3]) != 2 {
		t.Fatalf("deliveries = %d, want 2 (healed via alternate relay)", len(n.unicast[3]))
	}
}

func TestStaleRoutesExpire(t *testing.T) {
	n := newTestNet(t, 6, line(3), Config{})
	settle(n, 3)
	if _, ok := n.routers[0].HopsTo(2); !ok {
		t.Fatal("no route after convergence")
	}
	// Node 2 vanishes; after RouteTimeout node 0's entry must break.
	n.med.Leave(2)
	n.s.Run(n.s.Now() + DefaultConfig().RouteTimeout + 2*DefaultConfig().UpdatePeriod)
	if _, ok := n.routers[0].HopsTo(2); ok {
		t.Error("route to vanished node still valid")
	}
}

func TestPeriodicOverheadAccrues(t *testing.T) {
	// DSDV's signature: update traffic flows with zero application load.
	n := newTestNet(t, 7, line(4), Config{})
	n.s.Run(n.s.Now() + 5*sim.Minute)
	for i, r := range n.routers {
		if r.Stats().CtrlOrig < 10 {
			t.Errorf("node %d sent %d updates in 5 min, want >= 10", i, r.Stats().CtrlOrig)
		}
		if _, ok := r.HopsTo((i + 1) % 4); !ok {
			t.Errorf("node %d heard no updates (no route to neighbor)", i)
		}
	}
}

func TestBroadcastControlled(t *testing.T) {
	n := newTestNet(t, 8, line(6), Config{})
	n.routers[0].Broadcast(2, 10, netif.TestMsg(6))
	n.s.Run(n.s.Now() + sim.Second)
	for i := 1; i <= 2; i++ {
		if len(n.bcasts[i]) != 1 || n.bcasts[i][0].Hops != i {
			t.Errorf("node %d bcasts = %+v", i, n.bcasts[i])
		}
	}
	if len(n.bcasts[3]) != 0 {
		t.Error("broadcast exceeded TTL")
	}
}

func TestSendToSelf(t *testing.T) {
	n := newTestNet(t, 9, line(2), Config{})
	n.routers[0].Send(0, 10, netif.TestMsg(7))
	n.s.Run(n.s.Now() + sim.Second)
	if len(n.unicast[0]) != 1 || n.unicast[0][0].Hops != 0 {
		t.Fatalf("self delivery = %+v", n.unicast[0])
	}
}

func TestSeqGreaterWraparound(t *testing.T) {
	if !seqGreater(2, 1) || seqGreater(1, 2) || seqGreater(1, 1) {
		t.Error("basic ordering broken")
	}
	if !seqGreater(0, 0xffffffff) {
		t.Error("wraparound ordering broken")
	}
}
