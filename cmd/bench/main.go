// Command bench runs the tracked benchmark suite (benchsuite.go) and
// writes the results as machine-readable JSON, so the repository's perf
// trajectory is recorded per PR instead of living in commit messages.
//
// Usage:
//
//	bench                      # writes BENCH.json
//	bench -o BENCH_2.json      # explicit output path ('-' = stdout)
//	bench -benchtime 3s -run FullReplication
//	bench -baseline BENCH_20.json  # gate against the committed baseline
//
// Each benchmark runs -rounds times (default 3) and the fastest round
// is reported: the minimum is the round least disturbed by scheduler
// preemption or VM CPU steal, which keeps the ns/op gate meaningful on
// noisy CI hardware.
//
// With -baseline, the run is compared against the committed baseline
// after writing the report: any allocs/op increase on a benchmark the
// baseline holds at 0 allocs/op fails, and a >20% ns/op regression
// fails when the baseline was recorded on comparable hardware (same
// GOOS/GOARCH/CPU count — ns/op across different machines is noise, so
// those comparisons are skipped with a warning). A baseline entry the
// suite no longer produces is printed, and fails the gate if it was held
// at 0 allocs/op: a guarantee must not lapse by deleting its benchmark
// (regenerate the baseline to retire one on purpose; with -run, entries
// filtered out are not missing). A missing baseline file or -o equal to
// the baseline (regenerating it) skips the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"manetp2p"
)

// benchResult is one benchmark's measurement, mirroring the columns of
// `go test -bench -benchmem` output.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type report struct {
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	Timestamp  string        `json:"timestamp"`
	BenchTime  string        `json:"bench_time"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	// Register the testing flags first so -benchtime can be forwarded to
	// testing.Benchmark below.
	testing.Init()
	var (
		out       = flag.String("o", "BENCH.json", "output path for the JSON report ('-' = stdout)")
		benchtime = flag.String("benchtime", "1s", "per-benchmark time budget (forwarded to the testing package)")
		rounds    = flag.Int("rounds", 3, "runs per benchmark; the fastest is reported (min-of-N rejects scheduler/VM noise)")
		run       = flag.String("run", "", "only run benchmarks whose name contains this substring")
		baseline  = flag.String("baseline", "", "baseline JSON to gate against: fail on >20% ns/op regression (comparable hardware only) or any allocs/op increase on 0-alloc benchmarks")
	)
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		BenchTime: *benchtime,
	}
	for _, spec := range manetp2p.TrackedBenchmarks() {
		if *run != "" && !strings.Contains(spec.Name, *run) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", spec.Name)
		// Min-of-N: the minimum is the run least disturbed by scheduler
		// preemption and (on virtualized CI boxes) CPU steal, so it is a
		// far more stable statistic than any single run — one quiet round
		// suffices for a faithful number. allocs/op is deterministic
		// across rounds; ns/op is what the extra rounds stabilize.
		var best testing.BenchmarkResult
		for i := 0; i < *rounds; i++ {
			r := testing.Benchmark(spec.Fn)
			if i == 0 || float64(r.T.Nanoseconds())/float64(r.N) < float64(best.T.Nanoseconds())/float64(best.N) {
				best = r
			}
		}
		r := best
		res := benchResult{
			Name:        spec.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "  %d iterations, %.1f ns/op, %d B/op, %d allocs/op\n",
			res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if *baseline != "" && *baseline != *out {
		if !gate(rep, *baseline, *run) {
			os.Exit(1)
		}
	}
}

// maxRegression is the ns/op slack against the baseline before the
// gate fails: 20% absorbs run-to-run noise while still catching real
// hot-path regressions.
const maxRegression = 1.20

// gate compares the fresh report against the committed baseline and
// reports whether it passes. Allocation counts are machine-independent
// and gate unconditionally: a benchmark the baseline holds at 0
// allocs/op must stay at 0. ns/op gates only when the baseline was
// recorded in a comparable environment. run is the -run filter rep was
// produced under: a baseline entry it selects that rep lacks has vanished.
func gate(rep report, path, run string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gate: no baseline %s (%v); skipping comparison\n", path, err)
		return true
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "gate: unreadable baseline %s: %v\n", path, err)
		return false
	}
	comparable := base.GOOS == rep.GOOS && base.GOARCH == rep.GOARCH && base.NumCPU == rep.NumCPU
	if !comparable {
		fmt.Fprintf(os.Stderr, "gate: baseline environment %s/%s/%d CPUs differs from %s/%s/%d; ns/op not compared\n",
			base.GOOS, base.GOARCH, base.NumCPU, rep.GOOS, rep.GOARCH, rep.NumCPU)
	}
	byName := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	ok := true
	for _, cur := range rep.Benchmarks {
		b, found := byName[cur.Name]
		if !found {
			fmt.Fprintf(os.Stderr, "gate: %s has no baseline entry (new benchmark); skipping\n", cur.Name)
			continue
		}
		delete(byName, cur.Name)
		if b.AllocsPerOp == 0 && cur.AllocsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "gate: FAIL %s allocates %d/op; baseline holds it at 0\n",
				cur.Name, cur.AllocsPerOp)
			ok = false
		}
		if comparable && cur.NsPerOp > b.NsPerOp*maxRegression {
			fmt.Fprintf(os.Stderr, "gate: FAIL %s %.1f ns/op exceeds baseline %.1f by more than %d%%\n",
				cur.Name, cur.NsPerOp, b.NsPerOp, int(maxRegression*100)-100)
			ok = false
		}
	}
	for _, b := range base.Benchmarks {
		if _, vanished := byName[b.Name]; !vanished || !strings.Contains(b.Name, run) {
			continue
		}
		if b.AllocsPerOp == 0 {
			fmt.Fprintf(os.Stderr, "gate: FAIL %s is in the baseline at 0 allocs/op but no longer runs\n", b.Name)
			ok = false
		} else {
			fmt.Fprintf(os.Stderr, "gate: %s is in the baseline but no longer runs\n", b.Name)
		}
	}
	if ok {
		fmt.Fprintf(os.Stderr, "gate: pass against %s\n", path)
	}
	return ok
}
