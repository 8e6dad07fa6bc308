package aodv

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// lossyNet builds a line topology over a lossy medium.
func lossyNet(t *testing.T, seed int64, n int, loss float64) *testNet {
	t.Helper()
	s := sim.New(seed)
	med, err := radio.NewMedium(s, radio.Config{
		Arena:    geom.Rect{W: 200, H: 200},
		Range:    10,
		NumNodes: n,
		Latency:  2 * sim.Millisecond,
		Jitter:   sim.Millisecond,
		LossProb: loss,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := route.NewPlane(s, med)
	net := &testNet{
		s:       s,
		med:     med,
		routers: make([]*Router, n),
		unicast: make([][]Delivery, n),
		bcasts:  make([][]Delivery, n),
		failed:  make([][]int, n),
	}
	for i := 0; i < n; i++ {
		i := i
		r := NewRouter(i, pl, DefaultConfig())
		r.OnUnicast(func(d Delivery) { net.unicast[i] = append(net.unicast[i], d) })
		r.OnBroadcast(func(d Delivery) { net.bcasts[i] = append(net.bcasts[i], d) })
		r.OnSendFailed(func(dst int, _ netif.Msg) { net.failed[i] = append(net.failed[i], dst) })
		med.Join(i, geom.Point{X: 5 + 8*float64(i), Y: 50}, r.HandleFrame)
		net.routers[i] = r
	}
	return net
}

func TestDiscoveryTolerates10PercentLoss(t *testing.T) {
	// With 10% frame loss over a 4-hop chain the per-packet ceiling is
	// 0.9^4 ≈ 66% (data frames are not retransmitted), further reduced
	// by lossy discoveries. The property under test is that the router
	// keeps functioning — a solid fraction of packets still arrives and
	// the pipeline never wedges.
	n := lossyNet(t, 1, 5, 0.10)
	for i := 0; i < 20; i++ {
		i := i
		n.s.At(sim.Time(i)*10*sim.Second, func() {
			n.routers[0].Send(4, 32, netif.TestMsg(uint32(i)))
		})
	}
	n.s.Run(5 * sim.Minute)
	if got := len(n.unicast[4]); got < 4 {
		t.Errorf("delivered %d/20 under 10%% loss, want >= 4", got)
	}
	// Lossless control: the same workload without loss delivers ~all.
	ctl := lossyNet(t, 1, 5, 0)
	for i := 0; i < 20; i++ {
		i := i
		ctl.s.At(sim.Time(i)*10*sim.Second, func() {
			ctl.routers[0].Send(4, 32, netif.TestMsg(uint32(i)))
		})
	}
	ctl.s.Run(5 * sim.Minute)
	if got := len(ctl.unicast[4]); got < 19 {
		t.Errorf("lossless control delivered %d/20, want >= 19", got)
	}
}

func TestFloodRedundancyBeatsLossForBroadcast(t *testing.T) {
	// A controlled broadcast in a clique has many redundant paths; even
	// at 30% loss nearly every node should hear it.
	s := sim.New(2)
	const nodes = 10
	med, err := radio.NewMedium(s, radio.Config{
		Arena:    geom.Rect{W: 100, H: 100},
		Range:    10,
		NumNodes: nodes,
		Latency:  2 * sim.Millisecond,
		LossProb: 0.30,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := route.NewPlane(s, med)
	reached := make([]bool, nodes)
	routers := make([]*Router, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		routers[i] = NewRouter(i, pl, DefaultConfig())
		routers[i].OnBroadcast(func(Delivery) { reached[i] = true })
		med.Join(i, geom.Point{X: 50 + float64(i%3)*2, Y: 50 + float64(i/3)*2}, routers[i].HandleFrame)
	}
	// Several rounds: each is an independent flood.
	hits := 0
	const rounds = 10
	for round := 0; round < rounds; round++ {
		for i := range reached {
			reached[i] = false
		}
		routers[0].Broadcast(4, 16, netif.TestMsg(uint32(round)))
		s.Run(s.Now() + sim.Second)
		for i := 1; i < nodes; i++ {
			if reached[i] {
				hits++
			}
		}
	}
	total := rounds * (nodes - 1)
	if hits < total*8/10 {
		t.Errorf("flood reached %d/%d node-rounds at 30%% loss, want >= 80%%", hits, total)
	}
}

func TestMobilityChurnDoesNotPanicRouting(t *testing.T) {
	// Stress: nodes teleport randomly every second while traffic flows;
	// the routing layer must stay consistent (no panics, no stuck
	// state), even though many packets die.
	n := lossyNet(t, 3, 12, 0.05)
	rng := n.s.NewRand()
	arena := geom.Rect{W: 60, H: 60}
	sim.NewTicker(n.s, sim.Second, func() {
		id := rng.Intn(12)
		if n.med.Up(id) {
			n.med.SetPos(id, arena.RandomPoint(rng))
		}
	})
	sim.NewTicker(n.s, 3*sim.Second, func() {
		src, dst := rng.Intn(12), rng.Intn(12)
		n.routers[src].Send(dst, 24, netif.TestMsg(9))
	})
	// Also cycle a node off and on.
	sim.NewTicker(n.s, 45*sim.Second, func() {
		if n.med.Up(11) {
			n.med.Leave(11)
		} else {
			n.med.Join(11, arena.RandomPoint(rng), n.routers[11].HandleFrame)
		}
	})
	n.s.Run(10 * sim.Minute)
	delivered := 0
	for i := range n.unicast {
		delivered += len(n.unicast[i])
	}
	if delivered == 0 {
		t.Error("no packet delivered in 10 minutes of churn — routing wedged")
	}
}
