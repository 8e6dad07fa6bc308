package dsr

import (
	"math/rand"
	"testing"
	"testing/quick"

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
		Jitter:   sim.Millisecond,
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

func TestSourceRouteDelivery(t *testing.T) {
	n := newTestNet(t, 1, line(5), Config{})
	n.routers[0].Send(4, 100, netif.TestMsg(11))
	n.s.Run(10 * sim.Second)
	got := n.unicast[4]
	if len(got) != 1 {
		t.Fatalf("deliveries = %v, want 1", got)
	}
	if got[0].From != 0 || got[0].Hops != 4 || got[0].Payload != netif.TestMsg(11) {
		t.Errorf("delivery = %+v, want from 0 over 4 hops", got[0])
	}
	// Route cached at the origin...
	if h, ok := n.routers[0].HopsTo(4); !ok || h != 4 {
		t.Errorf("HopsTo(4) = (%d,%v), want (4,true)", h, ok)
	}
	// ...and learned in reverse at the destination from the data path.
	if h, ok := n.routers[4].HopsTo(0); !ok || h != 4 {
		t.Errorf("reverse HopsTo(0) = (%d,%v), want (4,true)", h, ok)
	}
	// Second send reuses the cache: no new discovery.
	before := n.routers[0].Stats().Discoveries
	n.routers[0].Send(4, 10, netif.TestMsg(12))
	n.s.Run(12 * sim.Second)
	if len(n.unicast[4]) != 2 {
		t.Fatal("second packet lost")
	}
	if n.routers[0].Stats().Discoveries != before {
		t.Error("cached route not reused")
	}
}

func TestIntermediatePrefixRoutesLearned(t *testing.T) {
	n := newTestNet(t, 2, line(6), Config{})
	n.routers[0].Send(5, 10, netif.TestMsg(1))
	n.s.Run(10 * sim.Second)
	// The origin learned prefix routes to every intermediate hop.
	for dst := 1; dst <= 5; dst++ {
		if h, ok := n.routers[0].HopsTo(dst); !ok || h != dst {
			t.Errorf("HopsTo(%d) = (%d,%v), want (%d,true)", dst, h, ok, dst)
		}
	}
}

func TestSendToSelf(t *testing.T) {
	n := newTestNet(t, 3, line(2), Config{})
	n.routers[0].Send(0, 10, netif.TestMsg(2))
	n.s.Run(sim.Second)
	if len(n.unicast[0]) != 1 || n.unicast[0][0].Hops != 0 {
		t.Fatalf("self delivery = %v", n.unicast[0])
	}
}

func TestDiscoveryFailureNotifies(t *testing.T) {
	pts := append(line(2), geom.Point{X: 190, Y: 190})
	cfg := Config{MaxDiscoveryRetries: 1, DiscoveryTTL: 6}
	n := newTestNet(t, 4, pts, cfg)
	n.routers[0].Send(2, 10, netif.TestMsg(3))
	n.s.Run(time2min())
	if len(n.failed[0]) != 1 || n.failed[0][0] != 2 {
		t.Fatalf("failed = %v, want [2]", n.failed[0])
	}
	if n.routers[0].Stats().DiscoverFailed != 1 {
		t.Errorf("DiscoverFail = %d, want 1", n.routers[0].Stats().DiscoverFailed)
	}
}

func time2min() sim.Time { return 2 * sim.Minute }

func TestBrokenLinkRecoveryAtOrigin(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3. Establish a route, kill the relay used,
	// send again: the origin must rediscover via the other relay.
	pts := []geom.Point{
		{X: 50, Y: 50}, {X: 58, Y: 44}, {X: 58, Y: 56}, {X: 66, Y: 50},
	}
	n := newTestNet(t, 5, pts, Config{})
	n.routers[0].Send(3, 10, netif.TestMsg(4))
	n.s.Run(5 * sim.Second)
	if len(n.unicast[3]) != 1 {
		t.Fatal("first packet lost")
	}
	relay := 1
	if n.routers[2].Stats().DataForwarded > 0 {
		relay = 2
	}
	n.med.SetPos(relay, geom.Point{X: 150, Y: 150})
	// Wait out the route cache so the origin must rediscover cleanly.
	n.s.Run(30 * sim.Second)
	n.routers[0].Send(3, 10, netif.TestMsg(5))
	n.s.Run(90 * sim.Second)
	if len(n.unicast[3]) != 2 {
		t.Fatalf("deliveries = %d, want 2 (recovery)", len(n.unicast[3]))
	}
}

func TestRERRReachesOriginFromMidPath(t *testing.T) {
	// Chain 0..4; route established; node 4 moves away while the cache
	// at 0 is still fresh. A data packet breaks at node 3, which must
	// RERR back; the origin's retry then fails or rediscovers — either
	// way no stale route survives at the origin.
	n := newTestNet(t, 6, line(5), Config{})
	n.routers[0].Send(4, 10, netif.TestMsg(6))
	n.s.Run(5 * sim.Second)
	if len(n.unicast[4]) != 1 {
		t.Fatal("warmup lost")
	}
	n.med.SetPos(4, geom.Point{X: 190, Y: 190})
	n.routers[0].Send(4, 10, netif.TestMsg(7))
	n.s.Run(time2min())
	if len(n.unicast[4]) != 1 {
		t.Fatal("packet delivered to unreachable node")
	}
	if _, ok := n.routers[0].HopsTo(4); ok {
		t.Error("origin still holds a route to the unreachable node")
	}
	var rerrs uint64
	for _, r := range n.routers {
		rerrs += r.Stats().CtrlOrig
	}
	if rerrs == 0 {
		t.Error("no RERR emitted for the broken source route")
	}
}

func TestBroadcastReachAndReverseRoutes(t *testing.T) {
	n := newTestNet(t, 7, line(6), Config{})
	n.routers[0].Broadcast(3, 50, netif.TestMsg(8))
	n.s.Run(sim.Second)
	for i := 1; i <= 3; i++ {
		if len(n.bcasts[i]) != 1 || n.bcasts[i][0].Hops != i {
			t.Errorf("node %d bcasts = %+v, want one at %d hops", i, n.bcasts[i], i)
		}
	}
	for i := 4; i < 6; i++ {
		if len(n.bcasts[i]) != 0 {
			t.Errorf("node %d beyond TTL received the flood", i)
		}
	}
	// Receivers learned routes back to the origin and can reply without
	// discovery.
	n.routers[3].Send(0, 10, netif.TestMsg(9))
	n.s.Run(2 * sim.Second)
	if len(n.unicast[0]) != 1 {
		t.Fatal("reply lost")
	}
	if n.routers[3].Stats().Discoveries != 0 {
		t.Error("responder needed a discovery despite piggybacked path")
	}
}

func TestBroadcastDedup(t *testing.T) {
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Point{X: 50 + float64(i%3), Y: 50 + float64(i/3)}
	}
	n := newTestNet(t, 8, pts, Config{})
	n.routers[0].Broadcast(5, 10, netif.TestMsg(10))
	n.s.Run(sim.Second)
	for i := 1; i < 8; i++ {
		if len(n.bcasts[i]) != 1 {
			t.Errorf("node %d received %d copies, want 1", i, len(n.bcasts[i]))
		}
	}
}

func TestRouteExpiry(t *testing.T) {
	cfg := Config{RouteLifetime: 5 * sim.Second}
	n := newTestNet(t, 9, line(3), cfg)
	n.routers[0].Send(2, 10, netif.TestMsg(13))
	n.s.Run(2 * sim.Second)
	if _, ok := n.routers[0].HopsTo(2); !ok {
		t.Fatal("route not cached")
	}
	n.s.Run(10 * sim.Second)
	if _, ok := n.routers[0].HopsTo(2); ok {
		t.Error("route survived past its lifetime")
	}
}

// Property: DSR delivers between the farthest connected pair on random
// static topologies, with hop count >= BFS distance.
func TestQuickDSRRandomTopology(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nodes = 25
		arena := geom.Rect{W: 60, H: 60}
		pts := make([]geom.Point, nodes)
		for i := range pts {
			pts[i] = arena.RandomPoint(rng)
		}
		dist := bfs(adjacency(pts, 10), 0)
		target, best := -1, 0
		for i, d := range dist {
			if d > best && d < 1<<30 {
				target, best = i, d
			}
		}
		if target < 0 {
			return true
		}
		n := newTestNet(t, seed, pts, Config{})
		n.routers[0].Send(target, 10, netif.TestMsg(14))
		n.s.Run(30 * sim.Second)
		if len(n.unicast[target]) != 1 {
			return false
		}
		return n.unicast[target][0].Hops >= best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func adjacency(pts []geom.Point, r float64) [][]int {
	adj := make([][]int, len(pts))
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= r {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}

func bfs(adj [][]int, src int) []int {
	const inf = 1 << 30
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] == inf {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func TestLearnRouteRejectsLoops(t *testing.T) {
	s := sim.New(1)
	med, err := radio.NewMedium(s, radio.Config{Arena: geom.Rect{W: 10, H: 10}, Range: 5, NumNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	pl := route.NewPlane(s, med.NumNodes())
	r := NewRouter(0, pl, med, Config{})
	r.learnRoute(3, []int{1, 0, 2}) // contains self: reject
	if _, ok := r.HopsTo(3); ok {
		t.Error("looping route accepted")
	}
	r.learnRoute(3, []int{1, 3}) // contains dst as intermediate: reject
	if _, ok := r.HopsTo(3); ok {
		t.Error("dst-as-intermediate route accepted")
	}
	r.learnRoute(0, []int{1}) // route to self: reject
	if _, ok := r.HopsTo(0); ok {
		t.Error("route to self accepted")
	}
}

func TestShorterRouteReplacesLonger(t *testing.T) {
	s := sim.New(1)
	med, err := radio.NewMedium(s, radio.Config{Arena: geom.Rect{W: 10, H: 10}, Range: 5, NumNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	pl := route.NewPlane(s, med.NumNodes())
	r := NewRouter(0, pl, med, Config{})
	r.learnRoute(5, []int{1, 2, 3})
	r.learnRoute(5, []int{4})
	if h, _ := r.HopsTo(5); h != 2 {
		t.Errorf("HopsTo = %d, want 2 (shorter route must win)", h)
	}
	// A longer route must not displace the shorter one.
	r.learnRoute(5, []int{1, 2, 3})
	if h, _ := r.HopsTo(5); h != 2 {
		t.Errorf("HopsTo = %d after longer update, want 2", h)
	}
}
