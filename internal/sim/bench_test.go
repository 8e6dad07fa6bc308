package sim

import "testing"

// BenchmarkSimEventQueue measures the simulator's schedule+fire hot path.
func BenchmarkSimEventQueue(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(Time(i%1000)*Millisecond, func() {})
		if s.Pending() > 1024 {
			s.Run(MaxTime)
		}
	}
	s.Run(MaxTime)
}
