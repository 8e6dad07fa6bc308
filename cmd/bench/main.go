// Command bench runs the tracked unit benchmarks — ordinary Benchmark*
// functions in bench_test.go of the package each one times — through
// `go test -bench` and writes the results as machine-readable JSON, so
// the repository's perf trajectory is recorded per PR instead of living
// in commit messages. Whole-replication time, the invariant checker's
// cost included, is benchmark/'s job, not this suite's.
//
// Usage (from the repository root):
//
//	bench                      # writes BENCH.json
//	bench -o BENCH_2.json      # explicit output path ('-' = stdout)
//	bench -benchtime 3s -run Servent
//	bench -baseline BENCH_21.json  # gate against the committed baseline
//
// Each benchmark runs -rounds times (go test -count, default 3) and the
// fastest round is reported: the minimum is the round least disturbed by
// scheduler preemption or VM CPU steal, which keeps the ns/op gate
// meaningful on noisy CI hardware.
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
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// tracked is the one list of the benchmarks recorded in BENCH_<n>.json,
// cheapest first: BenchmarkX of whichever package defines it.
var tracked = []string{
	"TelemetryProbe",   // internal/telemetry
	"SimEventQueue",    // internal/sim
	"GridNear",         // internal/geom
	"RadioBroadcast",   // internal/radio
	"DupCheck",         // internal/route
	"AODVDiscovery",    // internal/aodv
	"BcastRelay",       // internal/flood
	"ServentSend",      // internal/p2p
	"QueryFlood",       // internal/p2p
	"WorkloadArrivals", // internal/workload
	"OverlaySnapshot",  // internal/manet
}

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
	var (
		out       = flag.String("o", "BENCH.json", "output path for the JSON report ('-' = stdout)")
		benchtime = flag.String("benchtime", "1s", "per-benchmark time budget (go test -benchtime)")
		rounds    = flag.Int("rounds", 3, "runs per benchmark (go test -count); the fastest is reported (min-of-N rejects scheduler/VM noise)")
		run       = flag.String("run", "", "only run benchmarks whose name contains this substring")
		baseline  = flag.String("baseline", "", "baseline JSON to gate against: fail on >20% ns/op regression (comparable hardware only) or any allocs/op increase on 0-alloc benchmarks")
	)
	flag.Parse()

	var names []string
	for _, name := range tracked {
		if strings.Contains(name, *run) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: -run %q selects none of %s\n", *run, strings.Join(tracked, ", "))
		os.Exit(2)
	}
	results, err := goTestBench(names, *benchtime, *rounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		BenchTime:  *benchtime,
		Benchmarks: results,
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

// goTestBench runs the named benchmarks rounds times each over every
// package of the module, go test's output passing through to stderr, and
// returns in the order of names the round of each with the least ns/op
// (allocs/op is the same in every round). go test runs benchmarks one
// package after another; -p 1 also keeps it from linking the later
// packages' test binaries while the first ones are being timed.
func goTestBench(names []string, benchtime string, rounds int) ([]benchResult, error) {
	cmd := exec.Command("go", "test", "-p", "1", "-run", "^$",
		"-bench", "^Benchmark("+strings.Join(names, "|")+")$", "-benchmem",
		"-count", strconv.Itoa(rounds), "-benchtime", benchtime, "./...")
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	best := make(map[string]benchResult)
	for _, line := range strings.Split(stdout.String(), "\n") {
		if r, ok := parseResult(line); ok {
			if b, seen := best[r.Name]; !seen || r.NsPerOp < b.NsPerOp {
				best[r.Name] = r
			}
		}
	}
	results := make([]benchResult, 0, len(names))
	for _, name := range names {
		r, ran := best[name]
		if !ran {
			return nil, fmt.Errorf("no package defines Benchmark%s", name)
		}
		results = append(results, r)
	}
	return results, nil
}

// parseResult decodes one result line of `go test -bench -benchmem`:
//
//	BenchmarkGridNear-2   7150612   157.5 ns/op   0 B/op   0 allocs/op
//
// The name loses its Benchmark prefix and the -GOMAXPROCS suffix (absent
// on one CPU); value/unit pairs it does not record are skipped.
func parseResult(line string) (benchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
		return benchResult{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := benchResult{Name: name}
	var err error
	r.Iterations, err = strconv.Atoi(f[1])
	for i := 2; i+1 < len(f) && err == nil; i += 2 {
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp, err = strconv.ParseFloat(f[i], 64)
		case "B/op":
			r.BytesPerOp, err = strconv.ParseInt(f[i], 10, 64)
		case "allocs/op":
			r.AllocsPerOp, err = strconv.ParseInt(f[i], 10, 64)
		}
	}
	return r, err == nil
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
