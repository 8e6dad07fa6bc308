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
//	sweep -axis routing -config base.json -nodes 30
//
// Every cell starts from cmd/internal/scenarioflag's scenario, at 5
// replications by default; -algs sets the algorithm, so -alg is refused.
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
	"manetp2p/cmd/internal/scenarioflag"
	"manetp2p/internal/stats"
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
	// A death/birth regime: mean uptime up seconds, mean downtime 120 s.
	churn := func(up float64) func(*manetp2p.Scenario) {
		return func(sc *manetp2p.Scenario) {
			sc.Churn = manetp2p.ChurnConfig{MeanUptime: manetp2p.Seconds(up), MeanDowntime: manetp2p.Seconds(120)}
		}
	}
	return map[string]axisSpec{
		"density": {points: valuePoints("%g", []float64{25, 50, 100, 150}, func(sc *manetp2p.Scenario, v float64) { sc.NumNodes = int(v) })},
		"range":   {points: valuePoints("%gm", []float64{5, 10, 20, 30}, func(sc *manetp2p.Scenario, v float64) { sc.Range = v })},
		"speed":   {points: valuePoints("%gm/s", []float64{0.5, 1, 2, 5}, func(sc *manetp2p.Scenario, v float64) { sc.MaxSpeed = v })},
		"churn": {points: []point{
			{"none", func(sc *manetp2p.Scenario) {}}, {"mild", churn(1200)}, {"moderate", churn(600)}, {"heavy", churn(300)},
		}},
		"energy": {points: append([]point{{"infinite", func(sc *manetp2p.Scenario) {}}},
			valuePoints("%gJ", []float64{5, 2, 1}, func(sc *manetp2p.Scenario, j float64) { sc.Energy = manetp2p.DefaultEnergy(j) })...)},
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
			headers: []string{"reheal-s", "reheal-ci95", "residual-disc", "residual-ci95"},
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

// valuePoints derives one sweep point per value, labelled by format.
func valuePoints(format string, values []float64, set func(*manetp2p.Scenario, float64)) []point {
	points := make([]point, len(values))
	for i, v := range values {
		points[i] = point{fmt.Sprintf(format, v), func(sc *manetp2p.Scenario) { set(sc, v) }}
	}
	return points
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

// resilienceCells renders the faults-axis extra columns: time-to-reheal
// over the replications that re-healed from some event of the regime
// ("never" when none did), and residual disconnect over every event of
// every replication, each beside the 95 % half-width of its mean ("n/a"
// below two samples); "-" when the regime injected nothing. A regime of
// several events pools their samples.
func resilienceCells(res *manetp2p.Result) []string {
	r := res.Resilience
	if r == nil || len(r.Events) == 0 {
		return []string{"-", "-", "-", "-"}
	}
	var reheal, residual []stats.Summary
	for _, ev := range r.Events {
		reheal = append(reheal, ev.RehealSeconds)
		residual = append(residual, ev.ResidualDisconnect)
	}
	rh, rd := pooled(reheal), pooled(residual)
	rehealCell := "never"
	if rh.N > 0 {
		rehealCell = fmt.Sprintf("%.1f", rh.Mean)
	}
	return []string{rehealCell, halfWidth(rh, "%.1f"), fmt.Sprintf("%.3f", rd.Mean), halfWidth(rd, "%.3f")}
}

// pooled returns the N, Mean and StdDev of the union of the samples the
// summaries describe.
func pooled(ss []stats.Summary) stats.Summary {
	var p stats.Summary
	for _, s := range ss {
		p.N += s.N
		p.Mean += float64(s.N) * s.Mean
	}
	if p.N == 0 {
		return p
	}
	p.Mean /= float64(p.N)
	if p.N > 1 {
		ss2 := 0.0 // squared deviations from the pooled mean
		for _, s := range ss {
			d := s.Mean - p.Mean
			ss2 += float64(s.N-1)*s.StdDev*s.StdDev + float64(s.N)*d*d
		}
		p.StdDev = math.Sqrt(ss2 / float64(p.N-1))
	}
	return p
}

// halfWidth renders the 95 % half-width of s's mean, "n/a" below two
// samples, where CI95 reads 0.
func halfWidth(s stats.Summary, format string) string {
	if s.N < 2 {
		return "n/a"
	}
	return fmt.Sprintf(format, s.CI95())
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
		algsF      = flag.String("algs", scenarioflag.LowerNames(manetp2p.Algorithms(), ","), "comma-separated algorithms")
		jobs       = flag.Int("jobs", 0, "shared replication-worker budget across all scenario points (0 = GOMAXPROCS)")
		ckpt       = flag.String("checkpoint", "", "checkpoint directory: each grid cell persists to <dir>/<axis>_<point>_<alg>.ckpt; finished cells load without recomputation, interrupted ones resume")
		metricsDir = flag.String("metrics", "", "metrics directory: each grid cell streams its telemetry time series to <dir>/<axis>_<point>_<alg>.jsonl")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line on stderr")
	)
	scenario := scenarioFlags(flag.CommandLine)
	flag.Parse()

	axisName := strings.ToLower(*axis)
	spec, ok := reg[axisName]
	if !ok {
		exitOn(fmt.Errorf("unknown axis %q (valid: %s)", *axis, strings.Join(axisNames(reg), "|")), 2)
	}
	var algs []manetp2p.Algorithm
	for _, name := range strings.Split(*algsF, ",") {
		alg, err := manetp2p.ParseAlgorithm(strings.TrimSpace(name))
		exitOn(err, 2)
		algs = append(algs, alg)
	}

	base, cells, err := gridCells(scenario, spec, algs)
	exitOn(err, 2)

	fmt.Printf("# sweep axis=%s, %d reps/point, %gs simulated\n", axisName, base.Replications, base.Duration.Seconds())
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
	pool := manetp2p.NewPool(*jobs)
	for _, dir := range []string{*ckpt, *metricsDir} {
		if dir != "" {
			exitOn(os.MkdirAll(dir, 0o755), 1)
		}
	}
	// The progress line goes to stderr only (stdout stays diff-clean vs.
	// a sequential sweep); cells finish in scheduling order, so the line
	// shows the most recently completed cell, not the grid cursor.
	var progressMu sync.Mutex
	cellsDone := 0
	progress := func(c cell) {
		if *quiet {
			return
		}
		progressMu.Lock()
		cellsDone++
		fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells (done %s/%s)", cellsDone, len(cells), c.label, c.sc.Algorithm)
		if cellsDone == len(cells) {
			fmt.Fprintln(os.Stderr)
		}
		progressMu.Unlock()
	}
	type outcome struct {
		res *manetp2p.Result
		err error
	}
	results := make([]chan outcome, len(cells))
	for i, c := range cells {
		results[i] = make(chan outcome, 1)
		go func() {
			res, err := runCell(pool, c, axisName, *ckpt, *metricsDir)
			if err == nil {
				progress(c)
			}
			results[i] <- outcome{res, err}
		}()
	}
	for i, c := range cells {
		out := <-results[i]
		exitOn(out.err, 1)
		fmt.Println(formatRow(c.label, c.sc.Algorithm, out.res, spec))
	}
}

// runCell runs one cell on pool, streaming its telemetry into its file
// under metricsDir and persisting it to its file under ckptDir ("" =
// neither). A cell file from an earlier invocation loads or resumes;
// one left by different flags is an error, not silently recomputed.
func runCell(pool *manetp2p.Pool, c cell, axis, ckptDir, metricsDir string) (res *manetp2p.Result, err error) {
	var out manetp2p.Outputs
	if metricsDir != "" {
		f, err := os.Create(cellFilePath(metricsDir, axis, c.label, c.sc.Algorithm, "jsonl"))
		if err != nil {
			return nil, err
		}
		out.Sink = manetp2p.NewJSONLSink(f)
		defer func() {
			if cerr := out.Sink.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("sweep: writing metrics stream: %w", cerr)
			}
		}()
	}
	if ckptDir != "" {
		out.Checkpoint = cellFilePath(ckptDir, axis, c.label, c.sc.Algorithm, "ckpt")
	}
	return pool.Run(c.sc, out)
}

// scenarioFlags registers sweep's scenario flags.
func scenarioFlags(fs *flag.FlagSet) *scenarioflag.Flags {
	return scenarioflag.Register(fs, func(sc *manetp2p.Scenario) { sc.Replications = 5 }, "alg")
}

// cell is one (point, algorithm) run of the grid.
type cell struct {
	label string
	sc    manetp2p.Scenario
}

// gridCells resolves the base scenario and derives every cell from it.
func gridCells(sf *scenarioflag.Flags, spec axisSpec, algs []manetp2p.Algorithm) (manetp2p.Scenario, []cell, error) {
	base, err := sf.Scenario()
	var cells []cell
	for _, pt := range spec.points {
		for _, alg := range algs {
			sc := base
			sf.Fix(&sc, base.NumNodes, alg)
			pt.mod(&sc)
			cells = append(cells, cell{pt.label, sc})
		}
	}
	return base, cells, err
}

// cellFilePath names one grid cell's per-cell file (checkpoint or
// metrics stream). Point labels may contain characters that are hostile
// to filenames ("/", "."); everything outside [a-zA-Z0-9_-] maps to "-".
func cellFilePath(dir, axis, label string, alg manetp2p.Algorithm, ext string) string {
	sanitize := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-' {
				return r
			}
			return '-'
		}, s)
	}
	name := fmt.Sprintf("%s_%s_%s.%s", sanitize(axis), sanitize(label), sanitize(strings.ToLower(alg.String())), ext)
	return filepath.Join(dir, name)
}

// formatRow renders one TSV result row: the headline metrics plus the
// axis-specific extra cells.
func formatRow(label string, alg manetp2p.Algorithm, res *manetp2p.Result, spec axisSpec) string {
	found, reqs, answers, dists, ndists := 0.0, 0, 0.0, 0.0, 0
	for _, fc := range res.PerFile {
		reqs += fc.Requests
		found += fc.FoundRate * float64(fc.Requests)
		answers += fc.Answers.Mean * float64(fc.Requests)
		if fc.Distance.N > 0 {
			dists += fc.Distance.Mean
			ndists++
		}
	}
	foundPct, dist, answ := 0.0, 0.0, 0.0
	if reqs > 0 {
		foundPct = 100 * found / float64(reqs)
		answ = answers / float64(reqs)
	}
	if ndists > 0 {
		dist = dists / float64(ndists)
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
		row += "\t" + strings.Join(spec.cells(res), "\t")
	}
	return row
}

// exitOn prints err and exits with code unless err is nil.
func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}
