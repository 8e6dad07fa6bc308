package p2p

import (
	"testing"

	"manetp2p/internal/flood"
	"manetp2p/internal/geom"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
)

// benchOverlay joins one Regular servent per point over flood routers,
// queries and establishment off, and force-links each to the next: a
// known overlay chain whose hot messaging paths a benchmark drives
// directly. files, if non-nil, gives node i's holdings.
func benchOverlay(tb testing.TB, seed int64, arena geom.Rect, pts []geom.Point, par Params, files func(i int) []bool) (*sim.Sim, []*Servent, *telemetry.Collector) {
	s := sim.New(seed)
	med, err := radio.NewMedium(s, radio.Config{
		Arena: arena, Range: 10, NumNodes: len(pts),
		Latency: 2 * sim.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	col := telemetry.NewCollector(len(pts))
	svs := make([]*Servent, len(pts))
	pl := route.NewPlane(s, len(pts))
	for i, p := range pts {
		rt := flood.NewRouter(i, pl, med, flood.Config{})
		med.Join(i, p, rt.HandleFrame)
		opt := Options{Collector: col, RNG: s.NewRand(), NoQueries: true, NoEstablish: true}
		if files != nil {
			opt.Files = files(i)
		}
		sv := NewServent(i, s, rt, par, Regular, opt)
		rt.OnUnicast(sv.HandleUnicast)
		rt.OnBroadcast(sv.HandleBroadcast)
		svs[i] = sv
		sv.Join()
	}
	for i := 1; i < len(svs); i++ {
		forceLink(svs[i-1], svs[i], false)
	}
	return s, svs, col
}

// sendBench is the tracked overlay-send workload: the unicast send hot
// path between two linked servents — the kind-indexed size lookup, the
// router handoff, the radio round trip and the receive-side
// classification — the exact journey every keepalive, handshake and
// query message makes.
type sendBench struct {
	s   *sim.Sim
	src *Servent
	col *telemetry.Collector
}

func newSendBench(tb testing.TB) *sendBench {
	s, svs, col := benchOverlay(tb, 11, geom.Rect{W: 50, H: 50},
		[]geom.Point{{X: 10, Y: 25}, {X: 15, Y: 25}}, DefaultParams(), nil)
	w := &sendBench{s: s, src: svs[0], col: col}
	for i := 0; i < 64; i++ { // warm the event pool, dup caches, map buckets
		w.send()
	}
	return w
}

// send makes one send and drains it. A stale pong is used so the receive
// side exercises the full classification and dispatch switch and then
// drops the message without touching any timer (a per-op deadline reset
// would grow the event queue with far-future tombstones and dominate the
// measurement).
func (w *sendBench) send() {
	w.src.send(1, Msg{Kind: msgPong, Seq: 1<<32 - 1})
	w.s.Run(w.s.Now() + 10*sim.Millisecond)
}

func (w *sendBench) check(tb testing.TB) {
	if got := w.col.Received(1, telemetry.Pong); got == 0 {
		tb.Fatal("no messages delivered")
	}
}

// BenchmarkServentSend's contract is 0 allocs/op once warm:
// TestServentSendZeroAllocs holds it at zero.
func BenchmarkServentSend(b *testing.B) {
	w := newSendBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.send()
	}
	w.check(b)
}

// The same contract in `go test`, from the steady state on: the warm-up
// runs past the routers' duplicate-cache timeout, so the shared index has
// reached the size it keeps.
func TestServentSendZeroAllocs(t *testing.T) {
	w := newSendBench(t)
	for w.s.Now() < sim.Minute {
		w.send()
	}
	if allocs := testing.AllocsPerRun(1000, w.send); allocs != 0 {
		t.Errorf("overlay send+deliver allocates %.1f allocs/op, want 0", allocs)
	}
	w.check(t)
}

// BenchmarkQueryFlood measures one Gnutella-style query flooded down an
// 8-servent overlay chain: per-hop duplicate suppression, the
// forwarding fan-out, the query hit unicast back from the far-end
// holder, and the requester's answer accounting.
func BenchmarkQueryFlood(b *testing.B) {
	const nodes = 8
	par := DefaultParams()
	par.PingInterval = 1 << 55
	par.QueryTTL = nodes // let the flood span the whole chain
	pts := make([]geom.Point, nodes)
	for n := range pts {
		pts[n] = geom.Point{X: 5 + 8*float64(n), Y: 25}
	}
	s, svs, _ := benchOverlay(b, 12, geom.Rect{W: 200, H: 50}, pts, par,
		func(n int) []bool { return []bool{n == nodes-1} }) // only the far end holds file 0
	src := svs[0]
	run := func() {
		// One query for file 0: a fresh QID fanned out to every overlay
		// neighbor, exactly as runQuery does it, minus the
		// collection-window scheduling (the benchmark drains deliveries
		// itself).
		src.nextQID++
		src.curReq = &request{qid: src.nextQID, file: 0}
		src.seen[queryKey{src.id, src.nextQID}] = struct{}{}
		q := Msg{Kind: msgQuery, Origin: src.id, Seq: src.nextQID, File: 0, TTL: par.QueryTTL}
		for _, peer := range src.sortedPeers() { // sorted: keeps runs reproducible
			src.send(peer, q)
		}
		s.Run(s.Now() + 200*sim.Millisecond)
		if src.curReq.answers != 1 {
			b.Fatalf("query collected %d answers, want 1", src.curReq.answers)
		}
		// Clear the per-query duplicate-suppression state so floods
		// replay without unbounded map growth.
		for _, sv := range svs {
			clear(sv.seen)
			sv.curReq = nil
		}
	}
	for i := 0; i < 8; i++ { // warm pools and caches before timing
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
