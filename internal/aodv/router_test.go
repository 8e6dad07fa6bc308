package aodv

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

// testNet wires a static topology of routers over one medium.
type testNet struct {
	s       *sim.Sim
	med     *radio.Medium
	routers []*Router
	// unicast[i] and bcasts[i] collect deliveries at node i.
	unicast [][]Delivery
	bcasts  [][]Delivery
	failed  [][]int // per node: destinations whose sends failed
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
		unicast: make([][]Delivery, len(pts)),
		bcasts:  make([][]Delivery, len(pts)),
		failed:  make([][]int, len(pts)),
	}
	for i, p := range pts {
		i := i
		r := NewRouter(i, pl, med, cfg)
		r.OnUnicast(func(d Delivery) { n.unicast[i] = append(n.unicast[i], d) })
		r.OnBroadcast(func(d Delivery) { n.bcasts[i] = append(n.bcasts[i], d) })
		r.OnSendFailed(func(dst int, _ netif.Msg) { n.failed[i] = append(n.failed[i], dst) })
		med.Join(i, p, r.HandleFrame)
		n.routers[i] = r
	}
	return n
}

// line returns n points spaced 8 m apart on a row (range is 10 m, so each
// node reaches exactly its neighbors).
func line(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: 5 + 8*float64(i), Y: 50}
	}
	return pts
}

func TestUnicastOverMultipleHops(t *testing.T) {
	n := newTestNet(t, 1, line(5), Config{})
	n.routers[0].Send(4, 100, netif.TestMsg(11))
	n.s.Run(10 * sim.Second)
	got := n.unicast[4]
	if len(got) != 1 {
		t.Fatalf("node 4 deliveries = %v, want 1", got)
	}
	if got[0].From != 0 || got[0].Hops != 4 || got[0].Payload != netif.TestMsg(11) {
		t.Errorf("delivery = %+v, want from 0, 4 hops", got[0])
	}
	// Subsequent sends reuse the route: no new discovery.
	before := n.routers[0].Stats().Discoveries
	n.routers[0].Send(4, 100, netif.TestMsg(12))
	n.s.Run(20 * sim.Second)
	if len(n.unicast[4]) != 2 {
		t.Fatal("second packet not delivered")
	}
	if n.routers[0].Stats().Discoveries != before {
		t.Error("second send triggered a new discovery despite valid route")
	}
}

func TestSendToSelf(t *testing.T) {
	n := newTestNet(t, 1, line(2), Config{})
	n.routers[0].Send(0, 10, netif.TestMsg(1))
	n.s.Run(sim.Second)
	if len(n.unicast[0]) != 1 || n.unicast[0][0].Hops != 0 {
		t.Fatalf("self delivery = %v, want one with 0 hops", n.unicast[0])
	}
}

func TestHopsToAfterDiscovery(t *testing.T) {
	n := newTestNet(t, 1, line(4), Config{})
	if _, ok := n.routers[0].HopsTo(3); ok {
		t.Fatal("HopsTo valid before any discovery")
	}
	n.routers[0].Send(3, 10, netif.TestMsg(2))
	n.s.Run(10 * sim.Second)
	h, ok := n.routers[0].HopsTo(3)
	if !ok || h != 3 {
		t.Fatalf("HopsTo(3) = (%d,%v), want (3,true)", h, ok)
	}
	// The destination also learned the reverse route.
	h, ok = n.routers[3].HopsTo(0)
	if !ok || h != 3 {
		t.Fatalf("reverse HopsTo(0) = (%d,%v), want (3,true)", h, ok)
	}
}

func TestExpandingRingEscalates(t *testing.T) {
	cfg := Config{TTLStart: 2, TTLIncrement: 2, TTLMax: 10}
	n := newTestNet(t, 1, line(8), cfg) // 7 hops away: needs 3 rings
	n.routers[0].Send(7, 10, netif.TestMsg(3))
	n.s.Run(30 * sim.Second)
	if len(n.unicast[7]) != 1 {
		t.Fatalf("far node deliveries = %v, want 1", n.unicast[7])
	}
	if got := n.routers[0].Stats().CtrlOrig; got < 3 {
		t.Errorf("RREQSent = %d, want >= 3 (ring escalation)", got)
	}
}

func TestDiscoveryFailureNotifies(t *testing.T) {
	// Node 2 is unreachable (far corner).
	pts := append(line(2), geom.Point{X: 190, Y: 190})
	n := newTestNet(t, 1, pts, Config{TTLStart: 2, TTLIncrement: 4, TTLMax: 8, MaxDiscoveryRetries: 1})
	n.routers[0].Send(2, 10, netif.TestMsg(4))
	n.s.Run(2 * sim.Minute)
	if len(n.failed[0]) != 1 || n.failed[0][0] != 2 {
		t.Fatalf("failed = %v, want [2]", n.failed[0])
	}
	if n.routers[0].Stats().DiscoverFailed != 1 {
		t.Errorf("DiscoverFail = %d, want 1", n.routers[0].Stats().DiscoverFailed)
	}
	if len(n.unicast[2]) != 0 {
		t.Error("unreachable node received data")
	}
}

// TestSendToNoNodeOfTheMediumFails pins the boundary of the id-indexed
// route table: a destination that is no node of the medium fails at once,
// exactly once, and starts no discovery.
func TestSendToNoNodeOfTheMediumFails(t *testing.T) {
	n := newTestNet(t, 1, line(2), Config{})
	for _, dst := range []int{2, -1} {
		n.routers[0].Send(dst, 10, netif.TestMsg(4))
	}
	n.s.Run(2 * sim.Minute)
	if len(n.failed[0]) != 2 || n.failed[0][0] != 2 || n.failed[0][1] != -1 {
		t.Fatalf("failed = %v, want [2 -1]", n.failed[0])
	}
	if st := n.routers[0].Stats(); st.Discoveries != 0 || st.SendFailed != 2 || st.DataSent != 2 {
		t.Errorf("stats = %+v, want 2 sends, 2 failures, no discovery", st)
	}
}

func TestBroadcastTTLLimitsReach(t *testing.T) {
	n := newTestNet(t, 1, line(6), Config{})
	n.routers[0].Broadcast(2, 50, netif.TestMsg(5))
	n.s.Run(sim.Second)
	wantHops := []int{0, 1, 2, 0, 0, 0} // 0 means not reached (origin gets nothing)
	for i := 1; i < 6; i++ {
		got := n.bcasts[i]
		if wantHops[i] == 0 {
			if len(got) != 0 {
				t.Errorf("node %d beyond TTL received %v", i, got)
			}
			continue
		}
		if len(got) != 1 {
			t.Fatalf("node %d deliveries = %v, want 1", i, got)
		}
		if got[0].Hops != wantHops[i] || got[0].From != 0 {
			t.Errorf("node %d delivery = %+v, want hops %d from 0", i, got[0], wantHops[i])
		}
	}
	if len(n.bcasts[0]) != 0 {
		t.Error("origin delivered its own broadcast")
	}
}

// clique returns n points all within range of each other.
func clique(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: 50 + float64(i%3), Y: 50 + float64(i/3)}
	}
	return pts
}

func TestBroadcastDedupInClique(t *testing.T) {
	n := newTestNet(t, 1, clique(8), Config{})
	n.routers[0].Broadcast(6, 50, netif.TestMsg(6))
	n.s.Run(sim.Second)
	for i := 1; i < 8; i++ {
		if len(n.bcasts[i]) != 1 {
			t.Errorf("node %d delivered %d copies, want exactly 1", i, len(n.bcasts[i]))
		}
	}
	// Duplicates were suppressed somewhere.
	var dups uint64
	for _, r := range n.routers {
		dups += r.Stats().DupHits
	}
	if dups == 0 {
		t.Error("no duplicate suppression in a clique flood")
	}
}

func TestBroadcastInstallsReverseRoute(t *testing.T) {
	n := newTestNet(t, 1, line(4), Config{})
	n.routers[0].Broadcast(6, 50, netif.TestMsg(7))
	n.s.Run(sim.Second)
	// Node 3 heard the flood 3 hops out; it can unicast back without any
	// route discovery of its own.
	n.routers[3].Send(0, 20, netif.TestMsg(8))
	n.s.Run(2 * sim.Second)
	if len(n.unicast[0]) != 1 || n.unicast[0][0].From != 3 {
		t.Fatalf("reply not delivered: %v", n.unicast[0])
	}
	if got := n.routers[3].Stats().CtrlOrig; got != 0 {
		t.Errorf("responder sent %d RREQs; reverse route from bcast not used", got)
	}
}

func TestLinkBreakRecoversViaAlternatePath(t *testing.T) {
	// Diamond: 0 - 1 - 3 and 0 - 2 - 3 (1 is the shorter-established hop).
	pts := []geom.Point{
		{X: 50, Y: 50},
		{X: 58, Y: 44},
		{X: 58, Y: 56},
		{X: 66, Y: 50},
	}
	n := newTestNet(t, 1, pts, Config{})
	n.routers[0].Send(3, 10, netif.TestMsg(13))
	n.s.Run(5 * sim.Second)
	if len(n.unicast[3]) != 1 {
		t.Fatal("initial packet not delivered")
	}
	// Find which relay carried it and move that relay out of range.
	relay := 1
	if n.routers[2].Stats().DataForwarded > 0 {
		relay = 2
	}
	n.med.SetPos(relay, geom.Point{X: 150, Y: 150})
	n.routers[0].Send(3, 10, netif.TestMsg(14))
	n.s.Run(60 * sim.Second)
	if len(n.unicast[3]) != 2 {
		t.Fatalf("deliveries = %d, want 2 (recovery via alternate relay)", len(n.unicast[3]))
	}
	if n.unicast[3][1].Payload != netif.TestMsg(14) {
		t.Errorf("second delivery = %+v", n.unicast[3][1])
	}
}

func TestRERRPropagates(t *testing.T) {
	// Chain 0-1-2-3; traffic 0->3 establishes routes at 1 and 2. Then 3
	// vanishes; next packet from 0 must trigger RERRs that invalidate the
	// stale route at node 1 as well.
	n := newTestNet(t, 1, line(4), Config{})
	n.routers[0].Send(3, 10, netif.TestMsg(15))
	n.s.Run(5 * sim.Second)
	n.med.Leave(3)
	n.routers[0].Send(3, 10, netif.TestMsg(16))
	n.s.Run(10 * sim.Second)
	var rerrs uint64
	for _, r := range n.routers[:3] {
		rerrs += r.Stats().CtrlOrig
	}
	if rerrs == 0 {
		t.Error("no RERR emitted after next-hop loss")
	}
	if _, ok := n.routers[1].HopsTo(3); ok {
		t.Error("stale route to dead node still valid at relay after RERR")
	}
}

func TestIntermediateNodeReplies(t *testing.T) {
	n := newTestNet(t, 1, line(5), Config{})
	// Establish 4's route knowledge at relay nodes via 0->4 traffic.
	n.routers[0].Send(4, 10, netif.TestMsg(17))
	n.s.Run(5 * sim.Second)
	// New requester 1 discovers 4: node 1..3 have fresh routes, so an
	// intermediate RREP should answer without the RREQ reaching 4 — but
	// either way the data must arrive.
	n.routers[1].Send(4, 10, netif.TestMsg(18))
	n.s.Run(10 * sim.Second)
	if len(n.unicast[4]) != 2 {
		t.Fatalf("deliveries at 4 = %d, want 2", len(n.unicast[4]))
	}
}

func TestDataTTLExhaustionDrops(t *testing.T) {
	cfg := Config{DataTTL: 2} // 2 hops max; target is 3 hops away
	n := newTestNet(t, 1, line(4), cfg)
	n.routers[0].Send(3, 10, netif.TestMsg(19))
	n.s.Run(20 * sim.Second)
	if len(n.unicast[3]) != 0 {
		t.Fatal("packet delivered despite TTL < path length")
	}
}

func TestBroadcastFromDownNodeIsNoop(t *testing.T) {
	n := newTestNet(t, 1, line(3), Config{})
	n.med.Leave(0)
	n.routers[0].Broadcast(3, 10, netif.TestMsg(20))
	n.routers[0].Send(2, 10, netif.TestMsg(21))
	n.s.Run(5 * sim.Second)
	if len(n.bcasts[1])+len(n.unicast[2]) != 0 {
		t.Fatal("down node transmitted")
	}
}

func TestBufferOverflowFailsSend(t *testing.T) {
	pts := append(line(2), geom.Point{X: 190, Y: 190})
	cfg := Config{BufferCap: 2, TTLStart: 2, TTLIncrement: 2, TTLMax: 4, MaxDiscoveryRetries: 1}
	n := newTestNet(t, 1, pts, cfg)
	for i := 0; i < 5; i++ {
		n.routers[0].Send(2, 10, netif.TestMsg(uint32(i)))
	}
	// 3 of 5 must fail immediately on buffer overflow; the other 2 fail
	// when discovery gives up.
	n.s.Run(2 * sim.Minute)
	if len(n.failed[0]) != 5 {
		t.Fatalf("failed count = %d, want 5", len(n.failed[0]))
	}
}

func TestDisabledDupCacheCausesStorm(t *testing.T) {
	// The ablation switch: without duplicate suppression a clique flood
	// re-forwards every received copy (bounded only by TTL).
	run := func(disable bool) uint64 {
		s := sim.New(9)
		med, err := radio.NewMedium(s, radio.Config{
			Arena: geom.Rect{W: 100, H: 100}, Range: 10, NumNodes: 8,
			Latency: 2 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		pl := route.NewPlane(s, med.NumNodes())
		routers := make([]*Router, 8)
		for i := 0; i < 8; i++ {
			routers[i] = NewRouter(i, pl, med, Config{DisableBcastDupCache: disable})
			med.Join(i, geom.Point{X: 50 + float64(i%3), Y: 50 + float64(i/3)}, routers[i].HandleFrame)
		}
		routers[0].Broadcast(4, 16, netif.TestMsg(23))
		s.Run(10 * sim.Second)
		var rx uint64
		for i := 0; i < 8; i++ {
			rx += med.Stats(i).RxFrames
		}
		return rx
	}
	cached, naive := run(false), run(true)
	if naive < 4*cached {
		t.Errorf("storm factor = %.1f (rx %d vs %d), want >= 4x without the cache",
			float64(naive)/float64(cached), naive, cached)
	}
}

// Property: on a random connected static topology, any pair completes a
// round trip, and the delivered hop count is at least the BFS distance.
func TestQuickUnicastOnRandomTopology(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nodes = 25
		arena := geom.Rect{W: 60, H: 60}
		pts := make([]geom.Point, nodes)
		for i := range pts {
			pts[i] = arena.RandomPoint(rng)
		}
		adj := adjacency(pts, 10)
		dist := bfs(adj, 0)
		// Pick the farthest reachable node; skip disconnected layouts.
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
		n.routers[0].Send(target, 10, netif.TestMsg(22))
		n.s.Run(time30s())
		if len(n.unicast[target]) != 1 {
			return false
		}
		d := n.unicast[target][0]
		return d.Hops >= best && d.Hops <= DefaultConfig().DataTTL
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func time30s() sim.Time { return 30 * sim.Second }

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

// Property: a TTL-k controlled broadcast reaches exactly the nodes whose
// BFS distance is within k (static topology, no loss).
func TestQuickBroadcastReach(t *testing.T) {
	f := func(seed int64, ttlRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ttl := 1 + int(ttlRaw%6)
		const nodes = 20
		arena := geom.Rect{W: 50, H: 50}
		pts := make([]geom.Point, nodes)
		for i := range pts {
			pts[i] = arena.RandomPoint(rng)
		}
		dist := bfs(adjacency(pts, 10), 0)
		n := newTestNet(t, seed, pts, Config{})
		n.routers[0].Broadcast(ttl, 10, netif.TestMsg(24))
		n.s.Run(time30s())
		for i := 1; i < nodes; i++ {
			reached := len(n.bcasts[i]) > 0
			want := dist[i] <= ttl
			if reached != want {
				return false
			}
			if reached && n.bcasts[i][0].Hops != dist[i] {
				// The first copy travels a shortest path in a
				// synchronized flood... but jitter can make a longer
				// path win; allow hops >= dist.
				if n.bcasts[i][0].Hops < dist[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
