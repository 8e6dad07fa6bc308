package dsr

import (
	"math"
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// linkBreakBench is the tracked link-break workload: node 0's route cache
// holds a route to each of 50 destinations (five 10-node chains, each
// learned once with its prefixes for free), and an RERR reaches it from
// off the RERR's path, naming a link no cached route uses. Each op walks
// every route in dropRoutesVia, drops none and relays nothing.
type linkBreakBench struct {
	r    *Router
	rerr radio.Frame
}

const linkBreakDsts = 50

func newLinkBreakBench(tb testing.TB) *linkBreakBench {
	s := sim.New(3)
	med, err := radio.NewMedium(s, radio.Config{
		Arena: geom.Rect{W: 100, H: 100}, Range: 10, NumNodes: linkBreakDsts + 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	w := &linkBreakBench{r: NewRouter(0, route.NewPlane(s, med), DefaultConfig())}
	for first := 1; first <= linkBreakDsts; first += 10 {
		chain := make([]int, 9)
		for i := range chain {
			chain[i] = first + i
		}
		w.r.learnRoute(first+9, chain)
	}
	// The link 1 -> 11 joins two chains; the RERR's path is 7 -> 50.
	w.rerr = radio.Frame{Src: 7, Dst: 0, Size: sizeRERR, Payload: netif.Packet{
		Kind: netif.PktRERR, Origin: linkBreakDsts, BadA: 1, BadB: 11, Path: []int{7},
	}}
	w.check(tb)
	return w
}

func (w *linkBreakBench) linkBreak() { w.r.HandleFrame(&w.rerr) }

// check fails tb unless every destination still has its route and
// nothing was relayed.
func (w *linkBreakBench) check(tb testing.TB) {
	for dst := 1; dst <= linkBreakDsts; dst++ {
		if hops, ok := w.r.HopsTo(dst); !ok || hops != (dst-1)%10+1 {
			tb.Fatalf("HopsTo(%d) = %d %v, want %d", dst, hops, ok, (dst-1)%10+1)
		}
	}
	if st := w.r.Stats(); st.CtrlRelayed != 0 {
		tb.Fatalf("an RERR for a node off its path was relayed %d times", st.CtrlRelayed)
	}
}

// BenchmarkDSRLinkBreak's contract is 0 allocs/op:
// TestDSRLinkBreakZeroAllocs holds it at zero.
func BenchmarkDSRLinkBreak(b *testing.B) {
	w := newLinkBreakBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.linkBreak()
	}
	w.check(b)
}

// The same contract in `go test`: testing a full cache against a broken
// link allocates nothing.
func TestDSRLinkBreakZeroAllocs(t *testing.T) {
	w := newLinkBreakBench(t)
	if allocs := testing.AllocsPerRun(200, w.linkBreak); allocs != 0 {
		t.Errorf("one RERR over a 50-route cache allocates %.1f allocs/op, want 0", allocs)
	}
	w.check(t)
}

// rreqRelayBench is the tracked RREQ-relay workload: node 0 hears a route
// request from node 1 that has travelled 4 → 3 → 2 → 1 from origin 5,
// learns the reverse route and relays the request with itself appended
// to the path, and its one neighbour, node 1, hears the longer path.
// Each op carries a new request id, so it is never a duplicate.
type rreqRelayBench struct {
	s     *sim.Sim
	r     *Router
	rreq  radio.Frame
	heard int // relayed requests node 1 heard with node 0 appended to the path
}

func newRREQRelayBench(tb testing.TB) *rreqRelayBench {
	w := &rreqRelayBench{s: sim.New(4)}
	med, err := radio.NewMedium(w.s, radio.Config{
		Arena: geom.Rect{W: 100, H: 100}, Range: 10, NumNodes: 7,
		Latency: 2 * sim.Millisecond, Jitter: sim.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seen.Timeout = sim.Second
	w.r = NewRouter(0, route.NewPlane(w.s, med), cfg)
	med.Join(0, geom.Point{X: 5, Y: 5}, w.r.HandleFrame)
	med.Join(1, geom.Point{X: 13, Y: 5}, func(f *radio.Frame) {
		if p := f.Payload.Path; f.Src == 0 && len(p) == 5 && p[3] == 1 && p[4] == 0 {
			w.heard++
		}
	})
	w.rreq = radio.Frame{Src: 1, Dst: radio.BroadcastAddr, Size: sizeRREQBase + 4*sizePerHop, Payload: netif.Packet{
		Kind: netif.PktRREQ, Origin: 5, Dst: 6, TTL: 10, Path: []int{4, 3, 2, 1},
	}}
	for w.s.Now() < 2*sim.Second { // past the cache timeout: the index is at its steady size
		w.relay()
	}
	w.heard = 0
	return w
}

// relay is one new request heard and relayed, drained.
func (w *rreqRelayBench) relay() {
	w.rreq.Payload.ID++
	w.r.HandleFrame(&w.rreq)
	w.s.Run(w.s.Now() + 10*sim.Millisecond)
}

// check fails tb unless node 1 heard n relays with the extended path
// and node 0 holds the reverse route to the origin.
func (w *rreqRelayBench) check(tb testing.TB, n int) {
	if w.heard != n {
		tb.Fatalf("node 1 heard %d relayed requests with the path extended by node 0, want %d", w.heard, n)
	}
	if hops, ok := w.r.HopsTo(5); !ok || hops != 5 {
		tb.Fatalf("HopsTo(5) = %d %v, want 5", hops, ok)
	}
}

// BenchmarkDSRRREQRelay's contract is 0 allocs/op:
// TestDSRRREQRelayZeroAllocs holds it at zero.
func BenchmarkDSRRREQRelay(b *testing.B) {
	w := newRREQRelayBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.relay()
	}
	w.check(b, b.N)
}

// The same contract in `go test`: extending a request's path and
// relaying it allocates nothing.
func TestDSRRREQRelayZeroAllocs(t *testing.T) {
	w := newRREQRelayBench(t)
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, w.relay); allocs != 0 {
		t.Errorf("one relayed RREQ allocates %.1f allocs/op, want 0", allocs)
	}
	w.check(t, runs+1) // AllocsPerRun makes one warm-up call
}

// learnRouteBench is the tracked route-change workload: node 0 learns a
// three-hop route to node 7 over 1 → 2 → 3, then a shorter one over
// 4 → 5, which replaces it, and then hears that its link to 4 broke,
// which drops the shorter route so the next op's longer one is taken
// again. Each op writes both routes and their prefix routes into the
// cache.
type learnRouteBench struct {
	r           *Router
	long, short []int
}

const learnRouteDst = 7

func newLearnRouteBench(tb testing.TB) *learnRouteBench {
	s := sim.New(5)
	med, err := radio.NewMedium(s, radio.Config{Arena: geom.Rect{W: 100, H: 100}, Range: 10, NumNodes: 8})
	if err != nil {
		tb.Fatal(err)
	}
	return &learnRouteBench{
		r:    NewRouter(0, route.NewPlane(s, med), DefaultConfig()),
		long: []int{1, 2, 3}, short: []int{4, 5},
	}
}

func (w *learnRouteBench) learn() {
	w.r.learnRoute(learnRouteDst, w.long)
	w.r.learnRoute(learnRouteDst, w.short)
	w.r.dropRoutesVia(0, w.short[0])
}

// check fails tb unless the broken link took the short route and its
// prefixes with it and left the long route's prefix routes.
func (w *learnRouteBench) check(tb testing.TB) {
	for dst, want := range []int{0, 1, 2, 3, 0, 0, 0, 0} {
		if hops, ok := w.r.HopsTo(dst); ok != (want > 0) || hops != want {
			tb.Fatalf("HopsTo(%d) = %d %v, want %d", dst, hops, ok, want)
		}
	}
}

// BenchmarkDSRLearnRoute's contract is 0 allocs/op:
// TestDSRLearnRouteZeroAllocs holds it at zero.
func BenchmarkDSRLearnRoute(b *testing.B) {
	w := newLearnRouteBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.learn()
	}
	w.check(b)
}

// The same contract in `go test`: once the cache holds storage for the
// destinations, replacing a route with one of another length and other
// hops rewrites it in place and allocates nothing. A chunk of the arena
// serves many carvings, so the test also holds the arena still, which
// names the cause when a route that lost its storage carves more.
func TestDSRLearnRouteZeroAllocs(t *testing.T) {
	w := newLearnRouteBench(t)
	w.learn() // the first op carves each destination's storage
	free := len(w.r.arena)
	if allocs := batchAllocs(200, w.learn); allocs != 0 {
		t.Errorf("learning two routes to one destination 200 times allocates %d objects, want 0", allocs)
	}
	if len(w.r.arena) != free {
		t.Errorf("the arena's free tail went from %d to %d ints: the ops carved path storage", free, len(w.r.arena))
	}
	w.check(t)
}

// batchAllocs counts the heap allocations of a batch of runs calls of
// op, each count after a warm-up batch, and returns the fewest of
// allocBatches counts: 2*allocBatches*runs calls in all. Counted whole,
// an allocation made less than once per call (a chunk every so many
// ops) cannot round away, as it would in testing.AllocsPerRun's
// per-call quotient. One of op's shows in every count; one the Go
// runtime makes meanwhile (its background scavenger re-arming a timer)
// in one count at most.
func batchAllocs(runs int, op func()) int {
	batch := func() {
		for range runs {
			op()
		}
	}
	fewest := math.MaxInt
	for range allocBatches {
		fewest = min(fewest, int(testing.AllocsPerRun(1, batch)))
	}
	return fewest
}

// allocBatches is how many batches batchAllocs counts.
const allocBatches = 5
