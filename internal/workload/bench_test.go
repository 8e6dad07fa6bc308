package workload

import (
	"testing"

	"manetp2p/internal/sim"
)

// newArrivalBench returns the tracked arrival workload: an engine for 50
// nodes and 20 files under the busiest configuration (bursty arrivals,
// drifting and rotating Zipf popularity, session classes, an active
// flash-crowd phase) with the phase transition already crossed, and one
// node's holdings for PickFile to skip.
func newArrivalBench() (*Engine, []bool) {
	plan := Plan{
		Arrival:    Arrival{Process: OnOff, Rate: 0.2},
		Popularity: Popularity{Skew: 1.2, DriftPerHour: -0.4, RotateEvery: 120 * sim.Second},
		Sessions:   DefaultSessions(),
		Phases: []Phase{
			{Name: "flash", Start: 0, RateScale: 3, HotFiles: 3, HotBoost: 0.8},
		},
	}
	s := sim.New(1)
	e := New(s, s.NewRand(), plan, 50, 20, nil)
	held := make([]bool, 20)
	held[3] = true
	e.NextGap(0)
	return e, held
}

// arrival is query number i: one NextGap draw plus one PickFile draw for
// node i mod 50.
func arrival(e *Engine, held []bool, i int) {
	e.NextGap(i % 50)
	e.PickFile(i%50, held)
}

// BenchmarkWorkloadArrivals measures the workload engine's per-query hot
// path. The engine is called once per query per servent for the whole
// horizon, so this path must stay at zero allocations per operation;
// TestArrivalHotPathAllocs holds it there.
func BenchmarkWorkloadArrivals(b *testing.B) {
	e, held := newArrivalBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrival(e, held, i)
	}
}

// TestArrivalHotPathAllocs pins the arrival hot path at zero
// allocations: a single boxed value here costs millions of allocations
// per sweep.
func TestArrivalHotPathAllocs(t *testing.T) {
	e, held := newArrivalBench()
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		arrival(e, held, i)
		i++
	}); n != 0 {
		t.Fatalf("arrival hot path allocates %v per query, want 0", n)
	}
}
