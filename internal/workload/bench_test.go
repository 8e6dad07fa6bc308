package workload

import (
	"testing"

	"manetp2p/internal/sim"
)

// BenchmarkWorkloadArrivals measures the workload engine's per-query hot
// path — one NextGap draw plus one PickFile draw — under the busiest
// configuration (bursty arrivals, rotating Zipf popularity, session
// classes, an active flash-crowd phase). The engine is called once per
// query per servent for the whole horizon, so this path must stay at
// zero allocations per operation.
func BenchmarkWorkloadArrivals(b *testing.B) {
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
	e.NextGap(0) // cross the phase transition before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.NextGap(i % 50)
		e.PickFile(i%50, held)
	}
}
