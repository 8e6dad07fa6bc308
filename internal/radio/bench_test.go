package radio

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// broadcastBench is the tracked radio workload: the medium's whole
// reception path with nothing above it, one broadcast heard by 8
// neighbours, through Send (neighbour list, one stored frame, 8 wheel
// pushes) and the kernel's merged run loop into Fire and 8 empty receive
// callbacks.
type broadcastBench struct {
	s     *sim.Sim
	med   *Medium
	f     Frame
	heard int
}

const broadcastNeighbours = 8

func newBroadcastBench(tb testing.TB) *broadcastBench {
	w := &broadcastBench{s: sim.New(3)}
	med, err := NewMedium(w.s, Config{
		Arena: geom.Rect{W: 50, H: 50}, Range: 10, NumNodes: broadcastNeighbours + 1,
		Latency: 2 * sim.Millisecond, Jitter: sim.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	w.med = med
	med.Join(0, geom.Point{X: 25, Y: 25}, func(*Frame) {})
	for n := 1; n <= broadcastNeighbours; n++ {
		med.Join(n, geom.Point{X: 21 + float64(n), Y: 28}, func(*Frame) { w.heard++ })
	}
	w.f = Frame{Src: 0, Dst: BroadcastAddr, Size: 64, Payload: netif.Packet{Kind: netif.PktBcast, Msg: netif.TestMsg(1)}}
	for i := 0; i < 64; i++ { // warm the rec and frame slabs
		med.Send(w.f)
	}
	w.s.Run(sim.MaxTime)
	w.heard = 0
	return w
}

// step is broadcast number i. One neighbour moves before every 16th, so
// the sender's list is refilled from the grid at the rate a run refills
// it (one fill per 19 broadcasts measured on the 150-node cell, one per
// 5–7 on the sparse ones) instead of staying warm for the whole
// benchmark; GridNear times the fill's query on its own.
func (w *broadcastBench) step(i int) {
	if i&15 == 0 {
		w.med.SetPos(1, geom.Point{X: 22, Y: 28 + float64(i>>4&1)})
	}
	w.med.Send(w.f)
	w.s.Run(sim.MaxTime)
}

// BenchmarkRadioBroadcast's contract is 0 allocs/op once the slabs are
// warm: TestBroadcastZeroAllocs holds it at zero.
func BenchmarkRadioBroadcast(b *testing.B) {
	w := newBroadcastBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.step(i)
	}
	if w.heard != broadcastNeighbours*b.N {
		b.Fatalf("%d receptions for %d broadcasts, want %d each", w.heard, b.N, broadcastNeighbours)
	}
}

// The same contract in `go test`: broadcast, neighbour-list refill and
// all eight arrivals without one heap allocation.
func TestBroadcastZeroAllocs(t *testing.T) {
	w := newBroadcastBench(t)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		w.step(i)
		i++
	}); allocs != 0 {
		t.Errorf("broadcast Send+deliver allocates %.1f allocs/op, want 0", allocs)
	}
	if w.heard != broadcastNeighbours*i {
		t.Fatalf("%d receptions for %d broadcasts, want %d each", w.heard, i, broadcastNeighbours)
	}
}
