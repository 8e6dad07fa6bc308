// Command sweep runs the parameter studies from the paper's future-work
// list (§8): node density, wireless coverage (radio range), mobility
// speed, death/birth churn, energy budget, scripted fault regimes and
// scripted workload regimes. Each sweep prints one TSV row per
// parameter point with the headline metrics for the selected
// algorithms; axes registered with extra columns (faults, routing,
// workload) append them to every row.
//
// All scenario points run concurrently under one shared
// replication-worker budget (-jobs, default GOMAXPROCS); rows print in
// grid order, so the output matches a sequential sweep byte for byte.
//
// Usage:
//
//	sweep -axis density
//	sweep -axis range -algs basic,regular -jobs 4
//	sweep -axis energy -reps 10
//	sweep -axis faults -seed 7
//	sweep -axis workload -reps 3 -duration 1200
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"manetp2p"
	"manetp2p/internal/telemetry"
)

type point struct {
	label string
	mod   func(*manetp2p.Scenario)
}

// axisSpec is one registered sweep axis: its parameter points plus the
// axis-specific extra columns (nil cells = none). All axis knowledge —
// the flag help, the unknown-axis error, the per-row extras — derives
// from this registry, so adding an axis is one map entry.
type axisSpec struct {
	points  []point
	headers []string
	cells   func(*manetp2p.Result) []string
}

func registry() map[string]axisSpec {
	return map[string]axisSpec{
		"density": {points: []point{
			{"25", func(sc *manetp2p.Scenario) { sc.NumNodes = 25 }},
			{"50", func(sc *manetp2p.Scenario) { sc.NumNodes = 50 }},
			{"100", func(sc *manetp2p.Scenario) { sc.NumNodes = 100 }},
			{"150", func(sc *manetp2p.Scenario) { sc.NumNodes = 150 }},
		}},
		"range": {points: []point{
			{"5m", func(sc *manetp2p.Scenario) { sc.Range = 5 }},
			{"10m", func(sc *manetp2p.Scenario) { sc.Range = 10 }},
			{"20m", func(sc *manetp2p.Scenario) { sc.Range = 20 }},
			{"30m", func(sc *manetp2p.Scenario) { sc.Range = 30 }},
		}},
		"speed": {points: []point{
			{"0.5m/s", func(sc *manetp2p.Scenario) { sc.MaxSpeed = 0.5 }},
			{"1m/s", func(sc *manetp2p.Scenario) { sc.MaxSpeed = 1.0 }},
			{"2m/s", func(sc *manetp2p.Scenario) { sc.MaxSpeed = 2.0 }},
			{"5m/s", func(sc *manetp2p.Scenario) { sc.MaxSpeed = 5.0 }},
		}},
		"churn": {points: []point{
			{"none", func(sc *manetp2p.Scenario) {}},
			{"mild", func(sc *manetp2p.Scenario) {
				sc.Churn = manetp2p.ChurnConfig{MeanUptime: manetp2p.Seconds(1200), MeanDowntime: manetp2p.Seconds(120)}
			}},
			{"moderate", func(sc *manetp2p.Scenario) {
				sc.Churn = manetp2p.ChurnConfig{MeanUptime: manetp2p.Seconds(600), MeanDowntime: manetp2p.Seconds(120)}
			}},
			{"heavy", func(sc *manetp2p.Scenario) {
				sc.Churn = manetp2p.ChurnConfig{MeanUptime: manetp2p.Seconds(300), MeanDowntime: manetp2p.Seconds(120)}
			}},
		}},
		"energy": {points: []point{
			{"infinite", func(sc *manetp2p.Scenario) {}},
			{"5J", func(sc *manetp2p.Scenario) { sc.Energy = manetp2p.DefaultEnergy(5) }},
			{"2J", func(sc *manetp2p.Scenario) { sc.Energy = manetp2p.DefaultEnergy(2) }},
			{"1J", func(sc *manetp2p.Scenario) { sc.Energy = manetp2p.DefaultEnergy(1) }},
		}},
		"mobility": {points: kindPoints(manetp2p.Mobilities(), func(sc *manetp2p.Scenario, k manetp2p.MobilityKind) { sc.Mobility = k })},
		"routing": {
			points:  kindPoints(manetp2p.Routings(), func(sc *manetp2p.Scenario, k manetp2p.RoutingKind) { sc.Routing = k }),
			headers: []string{"ctrl/delivered", "sendfail%"},
			cells:   routingCells,
		},
		// Fault regimes: scripted failures relative to the run length,
		// executed by internal/fault. Telemetry (10 s sampling) switches
		// on automatically with a non-empty plan.
		"faults": {
			points: []point{
				{"none", func(sc *manetp2p.Scenario) {}},
				{"partition", func(sc *manetp2p.Scenario) {
					sc.Faults = manetp2p.FaultPlan{Events: []manetp2p.FaultEvent{
						manetp2p.PartitionFault(sc.Duration/3, manetp2p.Seconds(120), manetp2p.AxisX, sc.AreaSide/2),
					}}
				}},
				{"jam", func(sc *manetp2p.Scenario) {
					sc.Faults = manetp2p.FaultPlan{Events: []manetp2p.FaultEvent{
						manetp2p.JamFault(sc.Duration/3, manetp2p.Seconds(180),
							sc.AreaSide/2, sc.AreaSide/2, sc.AreaSide/4, 0.9),
					}}
				}},
				{"crash", func(sc *manetp2p.Scenario) {
					sc.Faults = manetp2p.FaultPlan{Events: []manetp2p.FaultEvent{
						manetp2p.CrashFractionFault(sc.Duration/3, manetp2p.Seconds(180), 0.25),
					}}
				}},
				{"combined", func(sc *manetp2p.Scenario) {
					sc.Faults = manetp2p.FaultPlan{Events: []manetp2p.FaultEvent{
						manetp2p.PartitionFault(sc.Duration/4, manetp2p.Seconds(120), manetp2p.AxisX, sc.AreaSide/2),
						manetp2p.CrashFractionFault(sc.Duration/2, manetp2p.Seconds(180), 0.25),
						manetp2p.LossBurstFault(3*sc.Duration/4, manetp2p.Seconds(60), 0.5),
					}}
				}},
			},
			headers: []string{"reheal-s", "residual-disc"},
			cells:   resilienceCells,
		},
		// Workload regimes: scripted demand executed by
		// internal/workload. "none" keeps the paper's built-in query
		// loop as the baseline row.
		"workload": {
			points: []point{
				{"none", func(sc *manetp2p.Scenario) {}},
				{"uniform", func(sc *manetp2p.Scenario) {
					sc.Workload = &manetp2p.WorkloadPlan{} // defaults = paper's 15-45 s gaps
				}},
				{"poisson", func(sc *manetp2p.Scenario) {
					sc.Workload = &manetp2p.WorkloadPlan{
						Arrival:    manetp2p.WorkloadArrival{Process: manetp2p.ArrivalPoisson, Rate: 1.0 / 30},
						Popularity: manetp2p.WorkloadPopularity{Skew: 1.0},
					}
				}},
				{"bursty", func(sc *manetp2p.Scenario) {
					sc.Workload = &manetp2p.WorkloadPlan{
						Arrival:    manetp2p.WorkloadArrival{Process: manetp2p.ArrivalOnOff, Rate: 0.1},
						Popularity: manetp2p.WorkloadPopularity{Skew: 1.0},
					}
				}},
				{"diurnal", func(sc *manetp2p.Scenario) {
					sc.Workload = &manetp2p.WorkloadPlan{
						Arrival: manetp2p.WorkloadArrival{
							Process: manetp2p.ArrivalDiurnal, Rate: 1.0 / 30,
							Period: sc.Duration / 2, Amplitude: 0.8,
						},
						Popularity: manetp2p.WorkloadPopularity{Skew: 1.0},
					}
				}},
				{"flash", func(sc *manetp2p.Scenario) {
					sc.Workload = &manetp2p.WorkloadPlan{
						Popularity: manetp2p.WorkloadPopularity{Skew: 1.2},
						Sessions:   manetp2p.DefaultWorkloadSessions(),
						Phases: []manetp2p.WorkloadPhase{
							{Name: "ramp", Start: 0, RateScale: 0.5},
							{Name: "steady", Start: sc.Duration / 4},
							{Name: "flash", Start: sc.Duration / 2, RateScale: 3, HotFiles: 3, HotBoost: 0.8},
							{Name: "drain", Start: 3 * sc.Duration / 4, RateScale: 0.25},
						},
					}
				}},
			},
			headers: []string{"offered", "success%", "ttfr-s"},
			cells:   workloadCells,
		},
	}
}

// kindPoints derives one sweep point per entry of a registered table
// (manetp2p.Routings, manetp2p.Mobilities), labelled by its lower-cased
// name, so an axis over a table never restates the table.
func kindPoints[K fmt.Stringer](kinds []K, set func(*manetp2p.Scenario, K)) []point {
	points := make([]point, len(kinds))
	for i, k := range kinds {
		points[i] = point{strings.ToLower(k.String()), func(sc *manetp2p.Scenario) { set(sc, k) }}
	}
	return points
}

// resilienceCells renders the faults-axis extra columns: mean
// time-to-reheal and residual disconnect over the regime's events, "-"
// when the regime injected nothing.
func resilienceCells(res *manetp2p.Result) []string {
	r := res.Resilience
	if r == nil || len(r.Events) == 0 {
		return []string{"-", "-"}
	}
	rehealSum, residualSum, n := 0.0, 0.0, 0
	for _, ev := range r.Events {
		rehealSum += ev.RehealSeconds.Mean
		residualSum += ev.ResidualDisconnect.Mean
		n++
	}
	if n == 0 || math.IsNaN(rehealSum) {
		return []string{"-", "-"}
	}
	return []string{
		fmt.Sprintf("%.1f", rehealSum/float64(n)),
		fmt.Sprintf("%.3f", residualSum/float64(n)),
	}
}

// routingCells renders the routing-axis extra columns: control frames
// spent per delivered payload and the percentage of locally originated
// sends that were abandoned, "-" when telemetry is absent.
func routingCells(res *manetp2p.Result) []string {
	rt := res.Routing
	if rt == nil {
		return []string{"-", "-"}
	}
	return []string{
		fmt.Sprintf("%.2f", rt.ControlPerDelivered()),
		fmt.Sprintf("%.1f", 100*rt.SendFailRate()),
	}
}

// workloadCells renders the workload-axis extra columns: offered demand
// per replication, the success rate and mean time-to-first-result, "-"
// for the built-in baseline row (no engine, no telemetry).
func workloadCells(res *manetp2p.Result) []string {
	ws := res.Workload
	if ws == nil {
		return []string{"-", "-", "-"}
	}
	return []string{
		fmt.Sprintf("%.0f", ws.Offered.Mean),
		fmt.Sprintf("%.1f", 100*ws.SuccessRate),
		fmt.Sprintf("%.2f", ws.TTFR.Mean),
	}
}

// axisNames returns the registered axis names, sorted.
func axisNames(reg map[string]axisSpec) []string {
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	reg := registry()
	var (
		axis       = flag.String("axis", "density", "sweep axis: "+strings.Join(axisNames(reg), "|"))
		algsF      = flag.String("algs", "basic,regular,random,hybrid", "comma-separated algorithms")
		reps       = flag.Int("reps", 5, "replications per point")
		nodes      = flag.Int("nodes", 50, "base node count (non-density sweeps)")
		dur        = flag.Float64("duration", 3600, "simulated seconds")
		seed       = flag.Int64("seed", 1, "base random seed")
		jobs       = flag.Int("jobs", 0, "shared replication-worker budget across all scenario points (0 = GOMAXPROCS)")
		ckpt       = flag.String("checkpoint", "", "checkpoint directory: each grid cell persists to <dir>/<axis>_<point>_<alg>.ckpt; finished cells load without recomputation, interrupted ones resume")
		metricsDir = flag.String("metrics", "", "metrics directory: each grid cell streams its telemetry time series to <dir>/<axis>_<point>_<alg>.jsonl")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line on stderr")
	)
	flag.Parse()

	axisName := strings.ToLower(*axis)
	spec, ok := reg[axisName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown axis %q (valid: %s)\n", *axis, strings.Join(axisNames(reg), "|"))
		os.Exit(2)
	}
	var algs []manetp2p.Algorithm
	for _, name := range strings.Split(*algsF, ",") {
		alg, err := manetp2p.ParseAlgorithm(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		algs = append(algs, alg)
	}

	fmt.Printf("# sweep axis=%s, %d reps/point, %gs simulated\n", axisName, *reps, *dur)
	header := "point\talg\tconnect/node\tping/node\tquery/node\tfound%\tdist\tanswers\tdeaths\tlargest-comp"
	for _, h := range spec.headers {
		header += "\t" + h
	}
	fmt.Println(header)
	// Every (point, algorithm) cell of the grid runs concurrently, all
	// drawing replication slots from one shared pool so the whole sweep
	// never exceeds the -jobs budget. Replications are deterministic
	// (fixed seeds, one result slot each) and rows print in grid order,
	// so the output is byte-identical to a sequential sweep.
	type cell struct {
		label string
		sc    manetp2p.Scenario
	}
	var cells []cell
	for _, pt := range spec.points {
		for _, alg := range algs {
			sc := manetp2p.DefaultScenario(*nodes, alg)
			sc.Duration = manetp2p.Seconds(*dur)
			sc.Replications = *reps
			sc.Seed = *seed
			pt.mod(&sc)
			cells = append(cells, cell{label: pt.label, sc: sc})
		}
	}
	pool := manetp2p.NewPool(*jobs)
	type outcome struct {
		res *manetp2p.Result
		err error
	}
	for _, dir := range []string{*ckpt, *metricsDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	// The progress line goes to stderr only (stdout stays diff-clean vs.
	// a sequential sweep); cells finish in scheduling order, so the line
	// shows the most recently completed cell, not the grid cursor.
	var progressMu sync.Mutex
	cellsDone := 0
	progress := func(label string, alg manetp2p.Algorithm) {
		if *quiet {
			return
		}
		progressMu.Lock()
		cellsDone++
		fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells (done %s/%s)", cellsDone, len(cells), label, alg)
		if cellsDone == len(cells) {
			fmt.Fprintln(os.Stderr)
		}
		progressMu.Unlock()
	}
	results := make([]chan outcome, len(cells))
	for i := range cells {
		results[i] = make(chan outcome, 1)
		go func(i int) {
			var sink manetp2p.MetricsSink
			if *metricsDir != "" {
				path := cellFilePath(*metricsDir, axisName, cells[i].label, cells[i].sc.Algorithm, "jsonl")
				f, err := os.Create(path)
				if err != nil {
					results[i] <- outcome{err: err}
					return
				}
				sink = manetp2p.NewJSONLSink(f)
			}
			var res *manetp2p.Result
			var err error
			if *ckpt != "" {
				// A cell file from an earlier invocation loads or resumes; one
				// left by different flags is an error, not silently recomputed.
				path := cellFilePath(*ckpt, axisName, cells[i].label, cells[i].sc.Algorithm, "ckpt")
				res, err = pool.RunCheckpointed(cells[i].sc, manetp2p.CheckpointConfig{Path: path, Sink: sink})
			} else {
				res, err = pool.RunWithMetrics(cells[i].sc, sink) // a nil sink is plain Run
			}
			if sink != nil {
				if cerr := sink.Close(); err == nil && cerr != nil {
					err = fmt.Errorf("sweep: writing metrics stream: %w", cerr)
				}
			}
			if err == nil {
				progress(cells[i].label, cells[i].sc.Algorithm)
			}
			results[i] <- outcome{res: res, err: err}
		}(i)
	}
	for i := range cells {
		out := <-results[i]
		if out.err != nil {
			fmt.Fprintln(os.Stderr, out.err)
			os.Exit(1)
		}
		fmt.Println(formatRow(cells[i].label, cells[i].sc.Algorithm, out.res, spec))
	}
}

// cellFilePath names one grid cell's per-cell file (checkpoint or
// metrics stream). Point labels may contain characters that are hostile
// to filenames ("/", "."); everything outside [a-zA-Z0-9_-] maps to "-".
func cellFilePath(dir, axis, label string, alg manetp2p.Algorithm, ext string) string {
	sanitize := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
				return r
			default:
				return '-'
			}
		}, s)
	}
	name := fmt.Sprintf("%s_%s_%s.%s", sanitize(axis), sanitize(label), sanitize(strings.ToLower(alg.String())), ext)
	return filepath.Join(dir, name)
}

// formatRow renders one TSV result row: the headline metrics plus the
// axis-specific extra cells.
func formatRow(label string, alg manetp2p.Algorithm, res *manetp2p.Result, spec axisSpec) string {
	found, reqs, answers := 0.0, 0, 0.0
	var dists []float64
	for _, fc := range res.PerFile {
		reqs += fc.Requests
		found += fc.FoundRate * float64(fc.Requests)
		answers += fc.Answers.Mean * float64(fc.Requests)
		if fc.Distance.N > 0 {
			dists = append(dists, fc.Distance.Mean)
		}
	}
	foundPct, dist, answ := 0.0, 0.0, 0.0
	if reqs > 0 {
		foundPct = 100 * found / float64(reqs)
		answ = answers / float64(reqs)
	}
	if len(dists) > 0 {
		for _, d := range dists {
			dist += d
		}
		dist /= float64(len(dists))
	}
	row := fmt.Sprintf("%s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\t%.1f\t%.2f",
		label, alg,
		res.Totals[telemetry.Connect].Mean,
		res.Totals[telemetry.Ping].Mean,
		res.Totals[telemetry.Query].Mean,
		foundPct, dist, answ,
		res.Deaths.Mean,
		res.Overlay.LargestComponent.Mean)
	if spec.cells != nil {
		for _, cell := range spec.cells(res) {
			row += "\t" + cell
		}
	}
	return row
}
