// Command benchmark is the repository's benchmark: five replication
// workloads, end-to-end wall seconds per simulated hour and allocation
// cost from untraced runs, and per-layer CPU time, spans and exact
// event/frame counts from two traced passes. README.md explains every
// metric and workload; BENCHMARK.json at the repository root declares
// them.
//
// One workload, as the benchmark driver runs it (via run.sh):
//
//	benchmark -workload paper150 -seed 7 -seconds 20 -trace 0
//
// Everything, with fixed work, three interleaved rounds and both traced
// passes, a table of every metric and a JSON report:
//
//	benchmark -o report.json
//
// Two reports of the same code, held to the benchmark's own bounds:
//
//	benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"manetp2p"
)

// options select what one invocation measures.
type options struct {
	root    string            // repository root, for the golden fixture
	seed    int64             // benchmark seed every replication seed derives from
	seconds float64           // > 0: fill this budget with passes, one round; 0: fixed passes × rounds
	rounds  int               // rounds of the fixed run
	trace   int               // 0 untraced only, 1 traced passes too, -1 both reported
	shrink  manetp2p.Duration // tests: replaces every cell's duration
}

func main() {
	var opt options
	var name, out, spansOut string
	var doCompare bool
	flag.StringVar(&name, "workload", "", "run one workload and print the driver's result line (default: all five)")
	flag.Int64Var(&opt.seed, "seed", 1000, "benchmark seed; every replication seed derives from it")
	flag.Float64Var(&opt.seconds, "seconds", 0, "measure for about this long per workload (default: each workload's fixed list, -rounds times)")
	flag.IntVar(&opt.rounds, "rounds", 3, "interleaved rounds of a fixed run; a replication's time is its minimum over them")
	flag.IntVar(&opt.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics from the traced passes; default both")
	flag.StringVar(&out, "o", "", "write the full JSON report here")
	flag.StringVar(&spansOut, "spans", "", "write pass B's spans per replication here")
	flag.BoolVar(&doCompare, "compare", false, "compare two reports: benchmark -compare a.json b.json")
	flag.Parse()

	if doCompare {
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() > 0 || opt.rounds < 1 || opt.seconds < 0 || opt.trace < -1 || opt.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	opt.root = findRoot()

	ws := buildWorkloads(0)
	if name != "" {
		w, err := findWorkload(ws, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		ws = []workload{*w}
	}
	rep, spans, err := measure(ws, opt, os.Stdout)
	if err == nil && out != "" {
		err = writeJSON(out, rep)
	}
	if err == nil && spansOut != "" {
		err = writeJSON(spansOut, spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	failed := 0
	for _, w := range rep.Workloads {
		failed += w.Failed
	}
	if name != "" {
		// The driver's contract: the last line is the result object, and
		// the exit code is 0 whenever there is one.
		fmt.Println(resultLine(rep.Workloads[0], opt.trace))
		return
	}
	if failed > 0 {
		fmt.Printf("\nFAILED: %d replications\n", failed)
		os.Exit(1)
	}
	fmt.Println("\nok")
}

// findRoot locates the repository root from the working directory:
// run.sh starts the binary at the root, `go run -C benchmark .` inside
// the benchmark's directory.
func findRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, goldenFixture)); err == nil {
			return dir
		}
	}
	return "."
}

// resultLine renders the one-line result object of the driver's
// contract.
func resultLine(w workloadReport, trace int) string {
	metrics := map[string]value{}
	if trace != 1 {
		for k, v := range w.EndToEnd {
			metrics[k] = v
		}
	}
	if trace != 0 {
		for _, s := range perLayerSpecs {
			metrics[s.Name] = w.PerLayer[s.Name]
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Failed == 0, w.Ops, w.Failed, metrics}) // numbers and strings: cannot fail
	return string(line)
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
		return 2
	}
	var reports [2]*report
	for i, path := range args {
		var err error
		if reports[i], err = readReport(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if !compare(os.Stdout, reports[0], reports[1]) {
		fmt.Println("reports DISAGREE")
		return 1
	}
	fmt.Println("reports agree")
	return 0
}

// measure runs the pipeline on the given workloads: the golden gate,
// set-up, the untraced timed rounds, then the traced passes, and
// prints every metric by name with its unit.
func measure(ws []workload, opt options, out io.Writer) (*report, []repSpans, error) {
	rep := &report{Env: readEnvironment(), Seed: opt.seed, Rounds: opt.rounds}
	if opt.seconds > 0 {
		rep.Rounds = 1
	}
	fmt.Fprintf(out, "%s, GOMAXPROCS %d of %d CPUs (%s), load %s, seed %d\n",
		rep.Env.GoVersion, rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.CPUModel, rep.Env.LoadAvgStart, opt.seed)

	// Correctness before any timing.
	if err := goldenGate(opt.root); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "golden gate: %s reproduced byte for byte\n", goldenFixture)

	runs := make([]*run, len(ws))
	setup := make([]float64, len(ws))
	for i := range ws {
		s, err := measureSetup(ws[i].name, opt.shrink)
		if err != nil {
			return nil, nil, err
		}
		setup[i] = s
		runs[i] = &run{w: &ws[i]}
	}

	// Timed rounds, tracing off. With a budget, passes fill it (a third
	// of it when traced passes follow, which re-run the same work twice).
	if opt.seconds > 0 {
		budget := opt.seconds
		if opt.trace == 1 {
			budget /= 3
		}
		for _, r := range runs {
			r.fillSeconds(opt.seed, budget)
		}
	} else {
		for _, r := range runs {
			for p := 0; p < r.w.passes; p++ {
				r.reps = append(r.reps, r.w.pass(opt.seed, p)...)
			}
		}
		// Interleaved, so machine-speed drift during the run spreads
		// over every workload instead of landing on one.
		for round := 0; round < opt.rounds; round++ {
			for _, r := range runs {
				r.timeReps(round, 0)
			}
		}
	}

	var spans []repSpans
	for i, r := range runs {
		wr := workloadReport{Name: r.w.name, Replications: len(r.reps), RoundSpread: r.roundSpread(), Digest: r.digest()}
		e2e := r.endToEnd()
		e2e["setup_s"] = setup[i]
		var err error
		if wr.EndToEnd, err = withUnits(endToEndSpecs, e2e); err != nil {
			return nil, nil, err
		}
		if opt.trace != 0 {
			cpu, samples, wallA, err := r.passA()
			if err != nil {
				return nil, nil, err
			}
			b := r.passB()
			spans = append(spans, b.perRep...)
			if wr.PerLayer, err = withUnits(perLayerSpecs, r.perLayer(cpu, samples, wallA, b)); err != nil {
				return nil, nil, err
			}
			wr.CPUShares = cpuShares(cpu)
			if r.w.name == "paper50" && opt.seconds == 0 {
				speedup, err := poolSpeedup(r.w.scenario(r.reps[0]))
				if err != nil {
					return nil, nil, err
				}
				wr.PerLayer[poolSpeedupSpec.Name] = value{speedup, poolSpeedupSpec.Unit}
			}
		}
		wr.Ops, wr.Failed, wr.Errors = r.ops, r.failed, r.errs
		wr.print(out)
		rep.Workloads = append(rep.Workloads, wr)
		if wr.RoundSpread > 0.10 {
			rep.Noisy = true
		}
	}
	rep.Env.LoadAvgEnd = loadAvg()
	if rep.Env.overloaded() {
		rep.Noisy = true
	}
	if rep.Noisy {
		fmt.Fprintln(out, "\nnoisy: the machine was loaded or rounds disagreed by more than 10%; rerun before believing a number")
	}
	return rep, spans, nil
}

// poolSpeedup is the replication pool's own figure: the wall time of
// six replications on one worker over the same on min(nproc, 4).
func poolSpeedup(sc manetp2p.Scenario) (float64, error) {
	sc.Replications = 6
	var wall [2]float64
	for i, workers := range []int{1, min(runtime.NumCPU(), 4)} {
		sc.Workers = workers
		runtime.GC()
		t0 := time.Now()
		if _, err := manetp2p.Run(sc); err != nil {
			return 0, fmt.Errorf("pool speed-up: %w", err)
		}
		wall[i] = time.Since(t0).Seconds()
	}
	return wall[0] / wall[1], nil
}
