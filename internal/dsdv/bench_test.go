package dsdv

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// updateBench is the tracked advertisement workload: node 0's table holds
// a row for each of 50 destinations, all learned from neighbour 1, and
// each op merges neighbour 1's 50-entry advertisement carrying a newer
// sequence number for every one, so every row is rewritten.
type updateBench struct {
	r   *Router
	adv radio.Frame
}

const updateDsts = 50

func newUpdateBench(tb testing.TB) *updateBench {
	s := sim.New(3)
	med, err := radio.NewMedium(s, radio.Config{
		Arena: geom.Rect{W: 100, H: 100}, Range: 10, NumNodes: updateDsts + 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	w := &updateBench{r: NewRouter(0, route.NewPlane(s, med), DefaultConfig())}
	entries := make([]netif.AdvEntry, updateDsts)
	for i := range entries {
		entries[i] = netif.AdvEntry{Dst: i + 1, Metric: i % 5}
	}
	w.adv = radio.Frame{Src: 1, Dst: radio.BroadcastAddr, Size: updateSize(updateDsts), Payload: netif.Packet{
		Kind: netif.PktUpdate, Origin: 1, Entries: entries,
	}}
	w.update()
	w.check(tb)
	return w
}

// update merges the advertisement after its origin's next round.
func (w *updateBench) update() {
	for i := range w.adv.Payload.Entries {
		w.adv.Payload.Entries[i].Seq += 2
	}
	w.r.HandleFrame(&w.adv)
}

// check fails tb unless every row holds the last advertisement's route.
func (w *updateBench) check(tb testing.TB) {
	for _, e := range w.adv.Payload.Entries {
		rt, ok := w.r.valid(e.Dst)
		if !ok || rt.nextHop != 1 || rt.metric != e.Metric+1 || rt.seq != e.Seq {
			tb.Fatalf("row %d = %+v %v, want via 1 at metric %d, seq %d", e.Dst, *rt, ok, e.Metric+1, e.Seq)
		}
	}
}

// BenchmarkDSDVUpdate's contract is 0 allocs/op: TestDSDVUpdateZeroAllocs
// holds it at zero.
func BenchmarkDSDVUpdate(b *testing.B) {
	w := newUpdateBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.update()
	}
	w.check(b)
}

// The same contract in `go test`: merging an advertisement into a full
// table allocates nothing.
func TestDSDVUpdateZeroAllocs(t *testing.T) {
	w := newUpdateBench(t)
	if allocs := testing.AllocsPerRun(200, w.update); allocs != 0 {
		t.Errorf("one 50-entry advertisement allocates %.1f allocs/op, want 0", allocs)
	}
	w.check(t)
}

// advertiseBench is the tracked advertisement-sending workload: node 0's
// table holds a row for each of 50 destinations, and each op builds its
// full 51-entry advertisement and puts it on the air, where its one
// neighbour, node 1, hears it.
type advertiseBench struct {
	s     *sim.Sim
	r     *Router
	heard int // advertisements node 1 heard with every row
}

func newAdvertiseBench(tb testing.TB) *advertiseBench {
	w := &advertiseBench{s: sim.New(3)}
	med, err := radio.NewMedium(w.s, radio.Config{
		Arena: geom.Rect{W: 100, H: 100}, Range: 10, NumNodes: updateDsts + 2,
		Latency: 2 * sim.Millisecond, Jitter: sim.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	// The periodic advertisement is pushed past the benchmark's horizon;
	// each op calls advertise itself.
	cfg := DefaultConfig()
	cfg.UpdatePeriod = 10_000 * sim.Hour
	cfg.RouteTimeout = 10_000 * sim.Hour
	w.r = NewRouter(0, route.NewPlane(w.s, med), cfg)
	med.Join(0, geom.Point{X: 5, Y: 5}, w.r.HandleFrame)
	med.Join(1, geom.Point{X: 13, Y: 5}, func(f *radio.Frame) {
		if e := f.Payload.Entries; len(e) == updateDsts+1 && e[0].Dst == 0 && e[updateDsts].Dst == updateDsts+1 {
			w.heard++
		}
	})
	entries := make([]netif.AdvEntry, updateDsts)
	for i := range entries {
		entries[i] = netif.AdvEntry{Dst: i + 2, Metric: i % 5, Seq: 2}
	}
	w.r.handleUpdate(&netif.Packet{Kind: netif.PktUpdate, Origin: 1, Entries: entries})
	w.advertise()
	w.heard = 0
	return w
}

// advertise is one advertisement sent and heard, drained.
func (w *advertiseBench) advertise() {
	w.r.advertise()
	w.s.Run(w.s.Now() + 10*sim.Millisecond)
}

// check fails tb unless node 1 heard n full advertisements.
func (w *advertiseBench) check(tb testing.TB, n int) {
	if w.heard != n {
		tb.Fatalf("node 1 heard %d full advertisements, want %d", w.heard, n)
	}
}

// BenchmarkDSDVAdvertise's contract is 0 allocs/op:
// TestDSDVAdvertiseZeroAllocs holds it at zero.
func BenchmarkDSDVAdvertise(b *testing.B) {
	w := newAdvertiseBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.advertise()
	}
	w.check(b, b.N)
}

// The same contract in `go test`: building and sending a full-table
// advertisement allocates nothing.
func TestDSDVAdvertiseZeroAllocs(t *testing.T) {
	w := newAdvertiseBench(t)
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, w.advertise); allocs != 0 {
		t.Errorf("one 51-entry advertisement allocates %.1f allocs/op, want 0", allocs)
	}
	w.check(t, runs+1) // AllocsPerRun makes one warm-up call
}
