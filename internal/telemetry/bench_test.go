package telemetry

import "testing"

// BenchmarkTelemetryProbe measures the telemetry plane's record hot path —
// Collector.Recv, which the servent layer hits on every received
// message. The contract is 0 allocs/op: TestRecordPathZeroAlloc holds it
// at zero in `go test`.
func BenchmarkTelemetryProbe(b *testing.B) {
	col := NewCollector(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Recv(i&7, Query)
	}
}
