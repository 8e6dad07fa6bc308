// Package conformance is the executable contract behind netif.Protocol:
// a reusable suite of behavioral tests every routing substrate must
// pass, run from a small per-package test file (see conformance_test.go
// in aodv, dsr, dsdv and flood). The suite pins the semantics the p2p
// overlay relies on but the interface alone cannot express —
// controlled-broadcast TTL reach, asynchronous self-delivery,
// OnSendFailed firing exactly once per abandoned payload and at once for
// a send from a down node or to a destination that is no node of the
// medium, hooks that
// may reenter the router, duplicate caches that stay bounded under a
// broadcast storm, received frames never written through the shared
// pointer, every pair's unicast on a static line delivered once, and
// duplicate receptions settled without becoming kernel events.
package conformance

import (
	"reflect"
	"slices"
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// Router is what the suite drives: the netif.Protocol surface plus the
// radio receive path and the duplicate-cache observables every router
// inherits from route.Core.
type Router interface {
	netif.Protocol
	HandleFrame(f *radio.Frame)
	SeenEntries() int
	SeenBound() int
}

// Factory describes one routing substrate to the suite.
type Factory struct {
	// Name labels failure output; use the package name.
	Name string
	// New builds node id's router on the network's shared routing plane,
	// which carries the medium. Configure small duplicate-cache caps here
	// if the default storm test is too slow for the protocol.
	New func(id int, pl *route.Plane) Router
	// NoRouteFeedback says the substrate learns nothing of an
	// unreachable destination (flood): a Send to one is silence, where
	// the others signal OnSendFailed once discovery or settling gives up.
	NoRouteFeedback bool
	// WarmUp is simulated time to run before the suite starts sending,
	// so proactive protocols can advertise routes. Zero for reactive
	// protocols.
	WarmUp sim.Time
	// FailDeadline bounds how long the substrate may take to signal an
	// abandoned payload; 0 defaults to 120 s (covers DSDV settling and
	// AODV/DSR full retry schedules with wide margin).
	FailDeadline sim.Time
}

// net is one assembled test network: a simulator, a medium, and a
// router per position with its deliveries recorded.
type net struct {
	s       *sim.Sim
	med     *radio.Medium
	routers []Router
	unicast [][]netif.Delivery
	bcasts  [][]netif.Delivery
	heard   []reception // every frame reception, as it looked on arrival
}

// reception is one frame as node to received it, snapshotted before the
// router's handler ran.
type reception struct {
	to    int
	frame radio.Frame
}

// snapshot deep-copies a frame: the struct and the slices it points to.
func snapshot(f *radio.Frame) radio.Frame {
	c := *f
	c.Payload.Path = slices.Clone(f.Payload.Path)
	c.Payload.Unreachable = slices.Clone(f.Payload.Unreachable)
	c.Payload.Entries = slices.Clone(f.Payload.Entries)
	return c
}

// receive is node i's radio receiver in every suite network: it hands
// the frame to the router and then requires it unchanged. The medium
// stores one frame per transmission and every receiver reads that same
// copy (radio.Receiver), so a handler that edits through the pointer —
// p.TTL--, p.HopCount++, an append into Path's spare capacity — would
// corrupt what the next neighbour hears.
func (n *net) receive(t *testing.T, name string, i int, f *radio.Frame) {
	before := snapshot(f)
	n.heard = append(n.heard, reception{to: i, frame: before})
	n.routers[i].HandleFrame(f)
	if !reflect.DeepEqual(*f, before) {
		t.Errorf("%s: node %d's handler modified the shared frame from %d:\nbefore %+v\nafter  %+v",
			name, i, before.Src, before, *f)
	}
}

// newNet builds the network. Positions closer than 10 m are in radio
// range of each other; frames take 2 ms per hop.
func newNet(t *testing.T, f Factory, seed int64, pts []geom.Point) *net {
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
	n := &net{
		s:       s,
		med:     med,
		routers: make([]Router, len(pts)),
		unicast: make([][]netif.Delivery, len(pts)),
		bcasts:  make([][]netif.Delivery, len(pts)),
	}
	pl := route.NewPlane(s, med)
	for i, p := range pts {
		i := i
		r := f.New(i, pl)
		if r.ID() != i {
			t.Fatalf("%s: NewRouter(%d).ID() = %d", f.Name, i, r.ID())
		}
		r.OnUnicast(func(d netif.Delivery) { n.unicast[i] = append(n.unicast[i], d) })
		r.OnBroadcast(func(d netif.Delivery) { n.bcasts[i] = append(n.bcasts[i], d) })
		n.routers[i] = r
		med.Join(i, p, func(fr *radio.Frame) { n.receive(t, f.Name, i, fr) })
	}
	if f.WarmUp > 0 {
		s.Run(f.WarmUp)
	}
	return n
}

// line places n nodes 8 m apart on a row: each node reaches exactly its
// neighbors, so hop counts equal index distance.
func line(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: 5 + 8*float64(i), Y: 50}
	}
	return pts
}

// lineHops is the hop distance between two nodes of a line.
func lineHops(a, b int) int { return max(a-b, b-a) }

// grid places side×side nodes 8 m apart: each node reaches the nodes
// beside, above and below it, not the diagonal ones, so two nodes are
// their Manhattan distance apart and most pairs have several shortest
// paths.
func grid(side int) []geom.Point {
	pts := make([]geom.Point, side*side)
	for i := range pts {
		pts[i] = geom.Point{X: 5 + 8*float64(i%side), Y: 5 + 8*float64(i/side)}
	}
	return pts
}

// gridHops is the hop distance between two nodes of grid(side).
func gridHops(side int) func(a, b int) int {
	return func(a, b int) int { return lineHops(a%side, b%side) + lineHops(a/side, b/side) }
}

// clique places n nodes within mutual range.
func clique(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: 50 + float64(i%3), Y: 50 + float64(i/3)}
	}
	return pts
}

// Run executes the full conformance suite against one substrate.
func Run(t *testing.T, f Factory) {
	t.Run("BroadcastTTL", func(t *testing.T) { testBroadcastTTL(t, f) })
	t.Run("SelfDelivery", func(t *testing.T) { testSelfDelivery(t, f) })
	t.Run("SendFailedOnce", func(t *testing.T) { testSendFailedOnce(t, f) })
	t.Run("SendToNoNode", func(t *testing.T) { testSendToNoNode(t, f) })
	t.Run("SendFromDownNode", func(t *testing.T) { testSendFromDownNode(t, f) })
	t.Run("HookReentrancy", func(t *testing.T) { testHookReentrancy(t, f) })
	t.Run("DupCacheBounded", func(t *testing.T) { testDupCacheBounded(t, f) })
	t.Run("SharedFramesReadOnly", func(t *testing.T) { testSharedFramesReadOnly(t, f) })
	t.Run("UnicastEveryPair", func(t *testing.T) { testUnicastEveryPair(t, f, line(5), lineHops, true) })
	t.Run("UnicastEveryPairGrid", func(t *testing.T) { testUnicastEveryPair(t, f, grid(3), gridHops(3), false) })
	t.Run("DuplicatesStayOffKernel", func(t *testing.T) { testDuplicatesStayOffKernel(t, f) })
}

// testBroadcastTTL pins the controlled-broadcast reach contract: a
// Broadcast with ttl t reaches every node within t hops exactly once,
// with Hops equal to the chain distance, and nothing beyond — and the
// origin never delivers its own broadcast to itself.
func testBroadcastTTL(t *testing.T, f Factory) {
	n := newNet(t, f, 1, line(6))
	base := make([]int, 6)
	for i := range base {
		base[i] = len(n.bcasts[i]) // proactive warm-up traffic, if any
	}
	n.routers[0].Broadcast(2, 10, netif.TestMsg(201))
	n.s.Run(n.s.Now() + 5*sim.Second)
	for i := 1; i <= 2; i++ {
		got := n.bcasts[i][base[i]:]
		if len(got) != 1 || got[0].Hops != i || got[0].From != 0 {
			t.Errorf("node %d broadcast deliveries = %+v, want one from 0 at %d hops", i, got, i)
		}
	}
	for i := 3; i < 6; i++ {
		if got := n.bcasts[i][base[i]:]; len(got) != 0 {
			t.Errorf("node %d beyond ttl=2 reached: %+v", i, got)
		}
	}
	if got := n.bcasts[0][base[0]:]; len(got) != 0 {
		t.Errorf("origin delivered its own broadcast: %+v", got)
	}

	for i := range base {
		base[i] = len(n.bcasts[i])
	}
	n.routers[0].Broadcast(1, 10, netif.TestMsg(101))
	n.s.Run(n.s.Now() + 5*sim.Second)
	if got := n.bcasts[1][base[1]:]; len(got) != 1 || got[0].Hops != 1 {
		t.Errorf("ttl=1 neighbor deliveries = %+v, want one at 1 hop", got)
	}
	for i := 2; i < 6; i++ {
		if got := n.bcasts[i][base[i]:]; len(got) != 0 {
			t.Errorf("ttl=1 broadcast relayed to node %d: %+v", i, got)
		}
	}
}

// testSelfDelivery pins that a Send addressed to the local node arrives
// like any other delivery: asynchronously (never from inside Send), as
// a unicast from self at zero hops, exactly once.
func testSelfDelivery(t *testing.T, f Factory) {
	n := newNet(t, f, 2, line(2))
	before := len(n.unicast[0])
	n.routers[0].Send(0, 10, netif.TestMsg(7))
	if got := len(n.unicast[0]); got != before {
		t.Fatal("self delivery dispatched synchronously from inside Send")
	}
	n.s.Run(n.s.Now() + sim.Second)
	got := n.unicast[0][before:]
	if len(got) != 1 || got[0].From != 0 || got[0].Hops != 0 {
		t.Fatalf("self deliveries = %+v, want one from 0 at 0 hops", got)
	}
}

// testSendFailedOnce pins the abandoned-payload contract: a payload
// for an unreachable destination is reported through OnSendFailed
// exactly once, with the destination and payload the caller passed, and
// counted once in SendFailed — or, without route feedback, never.
func testSendFailedOnce(t *testing.T, f Factory) {
	deadline := f.FailDeadline
	if deadline <= 0 {
		deadline = 120 * sim.Second
	}
	// Two nodes out of range of each other.
	pts := []geom.Point{{X: 10, Y: 50}, {X: 150, Y: 50}}
	n := newNet(t, f, 4, pts)
	type failure struct {
		dst     int
		payload netif.Msg
	}
	doomed := netif.TestMsg(13)
	var fails []failure
	n.routers[0].OnSendFailed(func(dst int, payload netif.Msg) {
		fails = append(fails, failure{dst, payload})
	})
	n.routers[0].Send(1, 10, doomed)
	n.s.Run(n.s.Now() + deadline)
	if len(n.unicast[1]) != 0 {
		t.Error("unreachable destination received the payload")
	}
	if f.NoRouteFeedback {
		if len(fails) != 0 || n.routers[0].Stats().SendFailed != 0 {
			t.Errorf("a router without route feedback reported %+v", fails)
		}
		return
	}
	if len(fails) != 1 {
		t.Fatalf("OnSendFailed fired %d times, want exactly 1 (%+v)", len(fails), fails)
	}
	if fails[0].dst != 1 || fails[0].payload != doomed {
		t.Errorf("failure = %+v, want dst=1 payload=%+v", fails[0], doomed)
	}
	if got := n.routers[0].Stats().SendFailed; got != 1 {
		t.Errorf("SendFailed = %d, want 1", got)
	}
}

// testSendToNoNode pins the boundary of the routers' id-indexed state: a
// Send to an id that is no node of the medium (-1, NumNodes) fails at
// once.
func testSendToNoNode(t *testing.T, f Factory) {
	n := newNet(t, f, 10, line(2))
	sendsFailAtOnce(t, f, n, []int{-1, n.med.NumNodes()})
}

// testSendFromDownNode pins the one down-sender rule (route.Core.Send):
// a Send from a node that has left the medium fails at once.
func testSendFromDownNode(t *testing.T, f Factory) {
	n := newNet(t, f, 11, line(2))
	n.med.Leave(0)
	sendsFailAtOnce(t, f, n, []int{1})
}

// sendsFailAtOnce sends from node 0 to each of dsts in turn and requires
// each Send to fail at once — OnSendFailed fires from inside Send,
// exactly once, SendFailed and DataSent count it — and to put nothing on
// the air: no frame, no discovery, no parked payload failing again
// later.
func sendsFailAtOnce(t *testing.T, f Factory, n *net, dsts []int) {
	deadline := f.FailDeadline
	if deadline <= 0 {
		deadline = 120 * sim.Second
	}
	r := n.routers[0]
	var fails []int
	r.OnSendFailed(func(dst int, _ netif.Msg) { fails = append(fails, dst) })
	before, tx := r.Stats(), n.med.Stats(0).TxFrames
	for i, dst := range dsts {
		r.Send(dst, 10, netif.TestMsg(uint32(60+i)))
		if !slices.Equal(fails, dsts[:i+1]) {
			t.Fatalf("after Send to %d, OnSendFailed reported %v, want %v at once", dst, fails, dsts[:i+1])
		}
	}
	if got := n.med.Stats(0).TxFrames; got != tx {
		t.Errorf("a Send that failed at once transmitted %d frames", got-tx)
	}
	n.heard = nil
	n.s.Run(n.s.Now() + deadline)
	if !slices.Equal(fails, dsts) {
		t.Errorf("OnSendFailed reported %v by the deadline, want %v", fails, dsts)
	}
	st, k := r.Stats(), uint64(len(dsts))
	if st.SendFailed-before.SendFailed != k || st.DataSent-before.DataSent != k || st.Discoveries != before.Discoveries {
		t.Errorf("stats went from %+v to %+v, want %d sends, %d failures, no discovery", before, st, k, k)
	}
	for _, h := range n.heard {
		if p := &h.frame.Payload; slices.Contains(dsts, p.Dst) {
			t.Errorf("node %d heard a frame for %d from %d: %+v", h.to, p.Dst, h.frame.Src, *p)
		}
	}
}

// testHookReentrancy pins that delivery hooks may call back into the
// router: an OnUnicast handler that immediately Sends a reply must not
// corrupt dispatch, and the reply must arrive.
func testHookReentrancy(t *testing.T, f Factory) {
	n := newNet(t, f, 5, line(2))
	ping, pong := netif.TestMsg(1), netif.TestMsg(2)
	replied := false
	n.routers[1].OnUnicast(func(d netif.Delivery) {
		n.unicast[1] = append(n.unicast[1], d)
		if !replied { // reply to the first arrival only
			replied = true
			n.routers[1].Send(d.From, 10, pong)
		}
	})
	n.routers[0].Send(1, 10, ping)
	n.s.Run(n.s.Now() + 60*sim.Second)
	if len(n.unicast[1]) != 1 || n.unicast[1][0].Payload != ping {
		t.Fatalf("request deliveries = %+v", n.unicast[1])
	}
	if len(n.unicast[0]) != 1 || n.unicast[0][0].Payload != pong {
		t.Fatalf("reply sent from inside the delivery hook never arrived: %+v", n.unicast[0])
	}
}

// testDupCacheBounded pins satellite invariant of the shared DupCache:
// after a 10k-broadcast storm from one origin, every node's duplicate
// caches hold no more than their configured hard caps, and the storm
// was actually delivered (the cap evicts history, not live traffic).
func testDupCacheBounded(t *testing.T, f Factory) {
	const storm = 10_000
	n := newNet(t, f, 6, clique(4))
	bound := n.routers[0].SeenBound()
	if bound <= 0 {
		t.Fatalf("SeenBound() = %d, want positive", bound)
	}
	base := len(n.bcasts[1])
	for i := 0; i < storm; i++ {
		n.routers[0].Broadcast(2, 8, netif.TestMsg(uint32(i)))
		// Drain in slices so in-flight frames do not accumulate without
		// bound inside the medium.
		if i%500 == 499 {
			n.s.Run(n.s.Now() + 100*sim.Millisecond)
		}
	}
	n.s.Run(n.s.Now() + 5*sim.Second)
	for i, r := range n.routers {
		if got := r.SeenEntries(); got > r.SeenBound() {
			t.Errorf("node %d duplicate caches hold %d entries, bound %d", i, got, r.SeenBound())
		}
	}
	if got := len(n.bcasts[1]) - base; got != storm {
		t.Errorf("neighbor delivered %d of %d storm broadcasts", got, storm)
	}
}

// testSharedFramesReadOnly pins the receive-pointer contract on the
// broadcast path, where a handler is tempted to edit in place. Every
// network the suite builds already checks each frame against a snapshot
// taken before its handler ran (net.receive); this test adds traffic
// where a violation is visible to a second reader — a broadcast heard
// by three neighbours, each of which relays it — and requires every
// receiver of a transmission to have seen the header its sender put on
// the air (a copy the medium settled unheard, radio.Inert, counts too).
// testUnicastEveryPair does the same for relayed unicasts.
func testSharedFramesReadOnly(t *testing.T, f Factory) {
	const ttl = 3
	n := newNet(t, f, 7, clique(4))
	n.heard = nil
	n.routers[0].Broadcast(ttl, 10, netif.TestMsg(31))
	n.s.Run(n.s.Now() + 5*sim.Second)
	fromOrigin, fromRelays := 0, 0
	for _, h := range n.heard {
		p := &h.frame.Payload
		if p.Kind != netif.PktBcast || p.Msg != netif.TestMsg(31) {
			continue
		}
		wantTTL, wantHops := ttl, 0
		if h.frame.Src == 0 {
			fromOrigin++
		} else {
			fromRelays++
			wantTTL, wantHops = ttl-1, 1
		}
		if p.TTL != wantTTL || p.HopCount != wantHops {
			t.Errorf("node %d heard the broadcast from %d with TTL %d HopCount %d, sender transmitted TTL %d HopCount %d",
				h.to, h.frame.Src, p.TTL, p.HopCount, wantTTL, wantHops)
		}
	}
	absorbed := 0
	for i := range n.routers {
		absorbed += int(n.med.Stats(i).Absorbed)
	}
	if fromOrigin != 3 || fromRelays+absorbed != 9 {
		t.Errorf("broadcast heard %d times from the origin and %d+%d from relays, want 3 and 9", fromOrigin, fromRelays, absorbed)
	}
}

// testDuplicatesStayOffKernel pins that the duplicate caches a router
// declares keep its duplicate receptions off the event kernel, with no
// line of the router's own (route.NewDupCache): a broadcast and a unicast
// from one corner, over clique(4) and over the 3×3 grid, count the same
// duplicates, receptions and deliveries with the medium's absorber
// removed, and as built fire strictly fewer kernel events.
func testDuplicatesStayOffKernel(t *testing.T, f Factory) {
	type outcome struct {
		DupHits, RxFrames uint64
		Deliveries        [2][][]netif.Delivery
	}
	for _, pts := range [][]geom.Point{clique(4), grid(3)} {
		var got [2]outcome
		var fired [2]uint64
		for run := range got {
			n := newNet(t, f, 11, pts)
			if run == 1 {
				n.med.SetAbsorber(nil)
			}
			start := n.s.Fired()
			n.routers[0].Broadcast(4, 10, netif.TestMsg(41))
			n.routers[0].Send(len(pts)-1, 10, netif.TestMsg(42))
			n.s.Run(n.s.Now() + 5*sim.Second)
			fired[run] = n.s.Fired() - start
			got[run].Deliveries = [2][][]netif.Delivery{n.unicast, n.bcasts}
			for i, r := range n.routers {
				got[run].DupHits += r.Stats().DupHits
				got[run].RxFrames += n.med.Stats(i).RxFrames
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) || got[0].DupHits == 0 || fired[0] >= fired[1] {
			t.Errorf("%d nodes: as built %+v in %d kernel events, without the absorber %+v in %d; want fewer events, all else equal",
				len(pts), got[0], fired[0], got[1], fired[1])
		}
	}
}

// testUnicastEveryPair is the differential check: on a static topology
// every router delivers the same message set. Each ordered pair sends
// one distinct payload at once; each arrives exactly once, from its
// sender, over the shortest distance hops gives, with no Send reported
// abandoned. Each data frame heard carries the hop cursor its sender put
// on the air, HopCount (aodv, dsdv, flood) or Pos (dsr): the sender's
// distance from the origin. Unless exact, that holds only for a sender
// on a shortest path to the destination, and elsewhere the cursor is
// never less: on a grid Flood's copies also spread around the
// destination, which does not relay. There, where several shortest
// paths exist, the simultaneous discoveries cross and duplicate RREQs
// abound.
func testUnicastEveryPair(t *testing.T, f Factory, pts []geom.Point, hops func(a, b int) int, exact bool) {
	nodes := len(pts)
	n := newNet(t, f, 9, pts)
	n.heard = nil
	tag := func(src, dst int) netif.Msg { return netif.TestMsg(uint32(src*nodes + dst)) }
	for src, r := range n.routers {
		r.OnSendFailed(func(dst int, _ netif.Msg) { t.Errorf("Send %d -> %d reported abandoned", src, dst) })
		for dst := range n.routers {
			if dst != src {
				r.Send(dst, 10, tag(src, dst))
			}
		}
	}
	n.s.Run(n.s.Now() + 60*sim.Second)
	for _, h := range n.heard {
		p := &h.frame.Payload
		if p.Kind != netif.PktData {
			continue
		}
		cursor, dist := p.HopCount+p.Pos, hops(h.frame.Src, p.Origin)
		if onPath := exact || dist+hops(h.frame.Src, p.Dst) == hops(p.Origin, p.Dst); cursor < dist || onPath && cursor != dist {
			t.Errorf("node %d heard %d's data frame for %d from %d with hop cursor %d", h.to, p.Origin, p.Dst, h.frame.Src, cursor)
		}
	}
	for dst, got := range n.unicast {
		from := make([]int, nodes)
		for _, d := range got {
			if d.Payload != tag(d.From, dst) || d.Hops != hops(d.From, dst) {
				t.Errorf("node %d delivered %+v", dst, d)
				continue
			}
			from[d.From]++
		}
		for src, k := range from {
			if src != dst && k != 1 {
				t.Errorf("payload %d -> %d delivered %d times, want 1", src, dst, k)
			}
		}
	}
}
