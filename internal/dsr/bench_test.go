package dsr

import (
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
