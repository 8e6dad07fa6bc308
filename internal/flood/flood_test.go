package flood

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
	}
	for i, p := range pts {
		i := i
		r := NewRouter(i, pl, med, cfg)
		r.OnUnicast(func(d netif.Delivery) { n.unicast[i] = append(n.unicast[i], d) })
		r.OnBroadcast(func(d netif.Delivery) { n.bcasts[i] = append(n.bcasts[i], d) })
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

func TestUnicastDeliveredByFlood(t *testing.T) {
	n := newTestNet(t, 1, line(5), Config{})
	n.routers[0].Send(4, 10, netif.TestMsg(1))
	n.s.Run(5 * sim.Second)
	if len(n.unicast[4]) != 1 || n.unicast[4][0].Hops != 4 {
		t.Fatalf("deliveries = %+v, want one at 4 hops", n.unicast[4])
	}
	// Non-destinations relay but never deliver.
	for i := 1; i < 4; i++ {
		if len(n.unicast[i]) != 0 {
			t.Errorf("relay %d delivered a unicast not addressed to it", i)
		}
	}
}

func TestUnicastTTLBound(t *testing.T) {
	cfg := Config{UnicastTTL: 3}
	n := newTestNet(t, 2, line(6), cfg)
	n.routers[0].Send(5, 10, netif.TestMsg(2))
	n.s.Run(5 * sim.Second)
	if len(n.unicast[5]) != 0 {
		t.Error("flood delivered beyond its TTL")
	}
	n.routers[0].Send(3, 10, netif.TestMsg(3))
	n.s.Run(10 * sim.Second)
	if len(n.unicast[3]) != 1 {
		t.Error("flood within TTL not delivered")
	}
}

func TestBroadcastReach(t *testing.T) {
	n := newTestNet(t, 3, line(6), Config{})
	n.routers[0].Broadcast(2, 10, netif.TestMsg(4))
	n.s.Run(sim.Second)
	for i := 1; i <= 2; i++ {
		if len(n.bcasts[i]) != 1 || n.bcasts[i][0].Hops != i {
			t.Errorf("node %d = %+v, want one delivery at %d hops", i, n.bcasts[i], i)
		}
	}
	for i := 3; i < 6; i++ {
		if len(n.bcasts[i]) != 0 {
			t.Errorf("node %d beyond TTL reached", i)
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	pts := make([]geom.Point, 9)
	for i := range pts {
		pts[i] = geom.Point{X: 50 + float64(i%3), Y: 50 + float64(i/3)}
	}
	n := newTestNet(t, 4, pts, Config{})
	n.routers[0].Send(8, 10, netif.TestMsg(5))
	n.s.Run(sim.Second)
	if len(n.unicast[8]) != 1 {
		t.Fatalf("deliveries = %d, want exactly 1 despite many paths", len(n.unicast[8]))
	}
	var dups uint64
	for _, r := range n.routers {
		dups += r.Stats().DupHits
	}
	if dups == 0 {
		t.Error("no duplicates suppressed in a clique")
	}
}

func TestDestinationDoesNotRelay(t *testing.T) {
	// Chain 0-1-2: when 1 is the destination, 2 must not receive the
	// packet at all (1 stops relaying).
	n := newTestNet(t, 5, line(3), Config{})
	n.routers[0].Send(1, 10, netif.TestMsg(6))
	n.s.Run(5 * sim.Second)
	if got := n.routers[2].Stats().DupHits + n.routers[2].Stats().DataForwarded; got != 0 {
		t.Errorf("node past the destination saw traffic (dup+relay=%d)", got)
	}
}

func TestSendToSelf(t *testing.T) {
	n := newTestNet(t, 6, line(2), Config{})
	n.routers[0].Send(0, 10, netif.TestMsg(7))
	n.s.Run(sim.Second)
	if len(n.unicast[0]) != 1 || n.unicast[0][0].Hops != 0 {
		t.Fatalf("self delivery = %+v", n.unicast[0])
	}
}

func TestDownNodeFailsSend(t *testing.T) {
	n := newTestNet(t, 7, line(2), Config{})
	failed := 0
	n.routers[0].OnSendFailed(func(int, netif.Msg) { failed++ })
	n.med.Leave(0)
	n.routers[0].Send(1, 10, netif.TestMsg(8))
	n.s.Run(sim.Second)
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	if len(n.unicast[1]) != 0 {
		t.Error("down node transmitted")
	}
}
