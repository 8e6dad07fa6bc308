package main

import "testing"

func TestParseResult(t *testing.T) {
	cases := []struct {
		line string
		want benchResult
		ok   bool
	}{
		{"BenchmarkGridNear-2   \t 7150612\t       157.5 ns/op\t       0 B/op\t       0 allocs/op",
			benchResult{Name: "GridNear", Iterations: 7150612, NsPerOp: 157.5}, true},
		// One CPU: go test prints no -GOMAXPROCS suffix.
		{"BenchmarkAODVDiscovery \t 96625\t 12428 ns/op\t 6312 B/op\t 19 allocs/op",
			benchResult{Name: "AODVDiscovery", Iterations: 96625, NsPerOp: 12428, BytesPerOp: 6312, AllocsPerOp: 19}, true},
		// A b.ReportMetric column between the standard ones is skipped.
		{"BenchmarkQueryFlood-16 10 8418 ns/op 1.000 answers/op 50 B/op 1 allocs/op",
			benchResult{Name: "QueryFlood", Iterations: 10, NsPerOp: 8418, BytesPerOp: 50, AllocsPerOp: 1}, true},
		{"ok  \tmanetp2p/internal/geom\t1.706s", benchResult{}, false},
		{"pkg: manetp2p/internal/geom", benchResult{}, false},
		{"BenchmarkGridNear-2", benchResult{}, false},                       // name line of a benchmark that logged
		{"BenchmarkGridNear-2 10 fast ns/op", benchResult{}, false},         // not a number
		{"BenchmarkGridNear-2 10 0 B/op 0 allocs/op", benchResult{}, false}, // no ns/op
		{"--- FAIL: BenchmarkGridNear-2", benchResult{}, false},
	}
	for _, c := range cases {
		got, ok := parseResult(c.line)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("parseResult(%q) = %+v, %v; want %+v, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}
