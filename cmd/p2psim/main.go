// Command p2psim runs one scenario of the paper's simulation study and
// prints a summary plus (optionally) the per-figure series.
//
// Usage:
//
//	p2psim -nodes 50 -alg regular -duration 3600 -reps 33
//	p2psim -nodes 150 -alg hybrid -series connect
//	p2psim -config base.json -nodes 40 -routing dsr
//
// The scenario flags, and how they override the -config file or the
// paper's Table 2 setup, are cmd/internal/scenarioflag's; -resume takes
// its scenario from the checkpoint and refuses them.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"manetp2p"
	"manetp2p/cmd/internal/outfile"
	"manetp2p/cmd/internal/scenarioflag"
	"manetp2p/internal/prof"
)

// parseSeries resolves the -series flag; "" selects no series.
func parseSeries(s string) (*manetp2p.SeriesKind, error) {
	if s == "" {
		return nil, nil
	}
	for _, k := range []manetp2p.SeriesKind{manetp2p.SeriesConnect, manetp2p.SeriesPing, manetp2p.SeriesQuery} {
		if strings.EqualFold(k.String(), s) {
			return &k, nil
		}
	}
	return nil, fmt.Errorf("unknown series %q (connect|ping|query)", s)
}

func main() {
	var (
		series     = flag.String("series", "", "also print a node series: connect|ping|query")
		curves     = flag.Bool("curves", false, "also print the per-file distance/answer curves")
		traceOut   = flag.String("trace", "", "run a single replication and write a JSON-lines event trace to this file ('-' = stdout)")
		saveCfg    = flag.String("save-config", "", "write the effective scenario as JSON to this file and exit")
		selfcheck  = flag.Bool("selfcheck", false, "run the invariant suite and determinism self-audit on the scenario and exit nonzero on any violation")
		ckptPath   = flag.String("checkpoint", "", "persist every finished replication to this checkpoint file; if it already holds this scenario, continue from it")
		resume     = flag.String("resume", "", "resume a run from this checkpoint file; the scenario comes from the checkpoint, so scenario flags are refused")
		metricsOut = flag.String("metrics", "", "stream the per-replication telemetry time series as JSON lines to this file ('-' = stdout)")
	)
	scenario := scenarioflag.Register(flag.CommandLine, func(*manetp2p.Scenario) {})
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()

	seriesKind, err := parseSeries(*series)
	exitOn(err, 2)
	if *traceOut != "" {
		exitOn(scenario.Refuse("p2psim: -trace writes one replication's events and nothing else",
			"checkpoint", "curves", "metrics", "resume", "save-config", "selfcheck", "series"), 2)
	}
	if *resume != "" {
		exitOn(scenario.Refuse("p2psim: -resume: the scenario comes from the checkpoint"), 2)
		exitOn(scenario.Refuse("p2psim: -resume continues the run in its checkpoint and does nothing else",
			"checkpoint", "save-config", "selfcheck"), 2)
	}

	stopProf, err := profFlags.Start()
	exitOn(err, 2)
	// Profiles flush on the normal return path; error paths os.Exit and
	// deliberately drop them rather than report half a run as a profile.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	var sc manetp2p.Scenario
	if *resume != "" {
		info, err := manetp2p.InspectCheckpoint(*resume)
		exitOn(err, 2)
		fmt.Fprintf(os.Stderr, "resuming %s: %d/%d replications complete\n",
			*resume, len(info.Completed), info.Total)
		sc, *ckptPath = info.Scenario, *resume
	} else {
		sc, err = scenario.Scenario()
		exitOn(err, 2)
	}
	if *saveCfg != "" {
		exitOn(manetp2p.SaveScenario(*saveCfg, sc), 1)
		return
	}
	if *selfcheck {
		runSelfcheck(sc)
		return
	}
	if *traceOut != "" {
		runTraced(sc, *traceOut)
		return
	}

	sink, closeSink := openMetricsSink(*metricsOut)
	res, err := manetp2p.NewPool(sc.Workers).Run(sc, manetp2p.Outputs{Checkpoint: *ckptPath, Sink: sink})
	exitOn(err, 1)
	closeSink()
	printReport(res, *curves, seriesKind)
}

// printReport ends every run mode — plain, checkpointed, resumed: the
// summary, the resilience, workload and traffic blocks the Result
// carries, and the tables the -curves and -series flags ask for.
func printReport(res *manetp2p.Result, curves bool, series *manetp2p.SeriesKind) {
	manetp2p.WriteSummary(os.Stdout, res)
	results := []*manetp2p.Result{res}
	if res.Resilience != nil {
		fmt.Println()
		exitOn(manetp2p.WriteResilience(os.Stdout, res), 1)
	}
	if res.Workload != nil {
		fmt.Println()
		exitOn(manetp2p.WriteWorkload(os.Stdout, res), 1)
	}
	if curves {
		fmt.Println()
		exitOn(manetp2p.WriteFileCurves(os.Stdout, results, 10), 1)
	}
	if len(res.ConnectTraffic) > 0 {
		fmt.Println()
		exitOn(manetp2p.WriteTrafficSeries(os.Stdout, results), 1)
	}
	if series != nil {
		fmt.Println()
		exitOn(manetp2p.WriteNodeSeries(os.Stdout, *series, results), 1)
	}
}

// openMetricsSink opens the -metrics target ("" = none, "-" = stdout)
// and returns the sink plus a close function that flushes it and exits
// nonzero on a write error. A file is emptied only when the run writes
// to it, so a refused run leaves it as it was.
func openMetricsSink(path string) (manetp2p.MetricsSink, func()) {
	if path == "" {
		return nil, func() {}
	}
	var w io.Writer
	if path == "-" {
		w = create(path, 2)
	} else {
		f, err := outfile.Create(path)
		exitOn(err, 2)
		w = f
	}
	sink := manetp2p.NewJSONLSink(w)
	return sink, func() {
		if err := sink.Close(); err != nil {
			exitOn(fmt.Errorf("writing metrics stream: %w", err), 1)
		}
	}
}

// runSelfcheck runs the invariant suite plus determinism audit and
// reports the outcome, exiting nonzero when anything is violated.
func runSelfcheck(sc manetp2p.Scenario) {
	fmt.Printf("selfcheck %s: %d nodes, %v x %d reps\n",
		sc.Name, sc.NumNodes, sc.Duration, sc.Replications)
	rep, err := manetp2p.SelfAudit(sc)
	exitOn(err, 1)
	pass := map[bool]string{true: "ok", false: "FAIL"}
	fmt.Printf("  determinism (same seed, same result): %s\n", pass[rep.Deterministic])
	fmt.Printf("  scheduling independence (serial == pooled): %s\n", pass[rep.ScheduleIndependent])
	fmt.Printf("  telemetry pooled-N conservation: %s\n", pass[rep.PooledN])
	fmt.Printf("  stepping independence (8 Step segments == one, replication record): %s\n", pass[rep.StepIndependent])
	if rep.Invariants != nil {
		fmt.Printf("  invariants (%d replications): %s\n",
			rep.Invariants.Replications, pass[rep.Invariants.OK()])
		for _, rv := range rep.Invariants.PerReplication {
			fmt.Printf("    replication %d (seed %d): %d violations\n", rv.Replication, rv.Seed, rv.Total)
			for _, v := range rv.Violations {
				fmt.Printf("      %s\n", v)
			}
		}
	}
	if rep.Detail != "" {
		fmt.Printf("  detail: %s\n", rep.Detail)
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

// runTraced runs one replication and streams its event trace to path.
func runTraced(sc manetp2p.Scenario, path string) {
	f := create(path, 1)
	w := bufio.NewWriter(f)
	exitOn(manetp2p.WriteTrace(sc, w), 1)
	exitOn(w.Flush(), 1)
	if c, ok := f.(io.Closer); ok {
		exitOn(c.Close(), 1)
	}
}

// create opens path for writing ("-" = stdout), exiting with code if it
// cannot. Stdout comes wrapped without its Close: a sink closes any
// io.Closer it is handed, and the report is still to be printed there.
func create(path string, code int) io.Writer {
	if path == "-" {
		return struct{ io.Writer }{os.Stdout}
	}
	f, err := os.Create(path)
	exitOn(err, code)
	return f
}

// exitOn prints err and exits with code unless err is nil.
func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}
