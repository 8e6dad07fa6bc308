// Command p2psim runs one scenario of the paper's simulation study and
// prints a summary plus (optionally) the per-figure series.
//
// Usage:
//
//	p2psim -nodes 50 -alg regular -duration 3600 -reps 33
//	p2psim -nodes 150 -alg hybrid -series connect
//	p2psim -config base.json -nodes 40 -routing dsr
//
// The base scenario is the -config file, or the paper's Table 2 setup
// without one; every scenario flag actually given (-nodes, -alg,
// -duration, -reps, -seed, -p2p, -speed, -area, -range, -classes,
// -routing, -traffic, -faults, -workload, -health, -peercache) then
// overrides that base. -resume takes its scenario from the checkpoint
// and refuses them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"manetp2p"
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

// scenarioFlags registers the flags that describe the scenario itself,
// as opposed to how it is run and reported, and returns two functions
// for use after fs is parsed: set lists those present on the command
// line, and resolve builds the effective scenario — the base (the
// -config file, or DefaultScenario) overridden by every flag in set.
func scenarioFlags(fs *flag.FlagSet) (set func() []string, resolve func() (manetp2p.Scenario, error)) {
	var (
		config    = fs.String("config", "", "load the base scenario from a JSON file ('-' = stdin); scenario flags given beside it override the file")
		nodes     = fs.Int("nodes", 50, "number of ad-hoc nodes")
		algName   = fs.String("alg", "regular", "algorithm: "+lowerNames(manetp2p.Algorithms()))
		duration  = fs.Float64("duration", 3600, "simulated seconds per replication")
		reps      = fs.Int("reps", 33, "replications")
		seed      = fs.Int64("seed", 1, "base random seed")
		fraction  = fs.Float64("p2p", 0.75, "fraction of nodes in the p2p overlay")
		speed     = fs.Float64("speed", 1.0, "max node speed, m/s")
		area      = fs.Float64("area", 100, "square arena side, metres")
		rng       = fs.Float64("range", 10, "radio range, metres")
		quals     = fs.Bool("classes", false, "use phone/PDA/notebook device classes (hybrid)")
		routing   = fs.String("routing", "aodv", "routing substrate: "+lowerNames(manetp2p.Routings()))
		traffic   = fs.Float64("traffic", 0, "also print message-rate series with this bucket width in seconds")
		faults    = fs.String("faults", "", "load a fault-injection plan from this JSON file ('-' = stdin) and print recovery metrics")
		workload  = fs.String("workload", "", "load a workload plan from this JSON file ('-' = stdin) and print demand telemetry")
		health    = fs.Float64("health", 0, "resilience-telemetry sampling period in seconds (default 10 when -faults is set)")
		peercache = fs.Bool("peercache", false, "enable the peer-cache extension (cached rendezvous before flooding)")
	)
	var sc manetp2p.Scenario
	var err error
	overrides := map[string]func(){
		"config":    func() {}, // the base, not an override: applied first by resolve
		"nodes":     func() { sc.NumNodes = *nodes },
		"alg":       func() { sc.Algorithm, err = manetp2p.ParseAlgorithm(*algName) },
		"duration":  func() { sc.Duration = manetp2p.Seconds(*duration) },
		"reps":      func() { sc.Replications = *reps },
		"seed":      func() { sc.Seed = *seed },
		"p2p":       func() { sc.MemberFraction = *fraction },
		"speed":     func() { sc.MaxSpeed = *speed },
		"area":      func() { sc.AreaSide = *area },
		"range":     func() { sc.Range = *rng },
		"routing":   func() { sc.Routing, err = manetp2p.ParseRouting(*routing) },
		"traffic":   func() { sc.TrafficBucket = manetp2p.Seconds(*traffic) },
		"faults":    func() { sc.Faults, err = manetp2p.LoadFaultPlan(*faults) },
		"workload":  func() { sc.Workload, err = manetp2p.LoadWorkloadPlan(*workload) },
		"health":    func() { sc.HealthEvery = manetp2p.Seconds(*health) },
		"peercache": func() { sc.Params.PeerCache.Enabled = *peercache },
		"classes": func() {
			if *quals {
				sc.Quals = manetp2p.DeviceClasses()
			}
		},
	}
	set = func() (names []string) {
		fs.Visit(func(f *flag.Flag) {
			if overrides[f.Name] != nil {
				names = append(names, f.Name)
			}
		})
		return names
	}
	resolve = func() (manetp2p.Scenario, error) {
		if *config != "" {
			sc, err = manetp2p.LoadScenario(*config)
		} else if alg, perr := manetp2p.ParseAlgorithm(*algName); perr != nil {
			err = perr
		} else {
			sc = manetp2p.DefaultScenario(*nodes, alg)
		}
		for _, name := range set() {
			if err == nil {
				overrides[name]()
			}
		}
		return sc, err
	}
	return set, resolve
}

// lowerNames renders a table of named kinds as flag help: "a|b|c".
func lowerNames[T fmt.Stringer](kinds []T) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = strings.ToLower(k.String())
	}
	return strings.Join(names, "|")
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
	scenarioSet, scenario := scenarioFlags(flag.CommandLine)
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()

	seriesKind, err := parseSeries(*series)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if set := scenarioSet(); *resume != "" && len(set) > 0 {
		fmt.Fprintf(os.Stderr, "p2psim: -resume: the scenario comes from the checkpoint; drop -%s\n", strings.Join(set, ", -"))
		os.Exit(2)
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Profiles flush on the normal return path; error paths os.Exit and
	// deliberately drop them rather than report half a run as a profile.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *resume != "" {
		info, err := manetp2p.InspectCheckpoint(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "resuming %s: %d/%d replications complete\n",
			*resume, len(info.Completed), info.Total)
		sink, closeSink := openMetricsSink(*metricsOut)
		res, err := manetp2p.NewPool(0).ResumeCheckpoint(*resume, manetp2p.CheckpointConfig{Sink: sink})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		closeSink()
		printReport(res, *curves, seriesKind)
		return
	}

	sc, err := scenario()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *saveCfg != "" {
		if err := manetp2p.SaveScenario(*saveCfg, sc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
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
	var res *manetp2p.Result
	if *ckptPath != "" {
		res, err = manetp2p.NewPool(0).RunCheckpointed(sc, manetp2p.CheckpointConfig{Path: *ckptPath, Sink: sink})
	} else {
		res, err = manetp2p.NewPool(0).RunWithMetrics(sc, sink) // a nil sink is plain Run
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	closeSink()
	printReport(res, *curves, seriesKind)
}

// printReport ends every run mode — plain, checkpointed, resumed: the
// summary, the resilience, workload and traffic blocks the Result
// carries, and the tables the -curves and -series flags ask for.
func printReport(res *manetp2p.Result, curves bool, series *manetp2p.SeriesKind) {
	manetp2p.WriteSummary(os.Stdout, res)
	results := []*manetp2p.Result{res}
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if res.Resilience != nil {
		fmt.Println()
		check(manetp2p.WriteResilience(os.Stdout, res))
	}
	if res.Workload != nil {
		fmt.Println()
		check(manetp2p.WriteWorkload(os.Stdout, res))
	}
	if curves {
		fmt.Println()
		check(manetp2p.WriteFileCurves(os.Stdout, results, 10))
	}
	if len(res.ConnectTraffic) > 0 {
		fmt.Println()
		check(manetp2p.WriteTrafficSeries(os.Stdout, results))
	}
	if series != nil {
		fmt.Println()
		check(manetp2p.WriteNodeSeries(os.Stdout, *series, results))
	}
}

// openMetricsSink opens the -metrics target ("" = none, "-" = stdout)
// and returns the sink plus a close function that flushes it and exits
// nonzero on a write error.
func openMetricsSink(path string) (manetp2p.MetricsSink, func()) {
	if path == "" {
		return nil, func() {}
	}
	// The sink closes any io.Closer it is handed, and the report is still
	// to be printed to stdout: hand it a writer with no Close.
	var w io.Writer = struct{ io.Writer }{os.Stdout}
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		w = f
	}
	sink := manetp2p.NewJSONLSink(w)
	return sink, func() {
		if err := sink.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "writing metrics stream: %v\n", err)
			os.Exit(1)
		}
	}
}

// runSelfcheck runs the invariant suite plus determinism audit and
// reports the outcome, exiting nonzero when anything is violated.
func runSelfcheck(sc manetp2p.Scenario) {
	fmt.Printf("selfcheck %s: %d nodes, %v x %d reps\n",
		sc.Name, sc.NumNodes, sc.Duration, sc.Replications)
	rep, err := manetp2p.SelfAudit(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pass := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAIL"
	}
	fmt.Printf("  determinism (same seed, same result): %s\n", pass(rep.Deterministic))
	fmt.Printf("  scheduling independence (serial == pooled): %s\n", pass(rep.ScheduleIndependent))
	fmt.Printf("  telemetry pooled-N conservation: %s\n", pass(rep.PooledN))
	fmt.Printf("  stepping independence (8 Step segments == one, replication record): %s\n", pass(rep.StepIndependent))
	if rep.Invariants != nil {
		fmt.Printf("  invariants (%d replications): %s\n",
			rep.Invariants.Replications, pass(rep.Invariants.OK()))
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

// runTraced executes one replication with tracing on and dumps the
// event log.
func runTraced(sc manetp2p.Scenario, path string) {
	sc.TraceCapacity = 1 << 20
	s, err := manetp2p.NewSimulation(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	s.Step(sc.Duration)
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := s.Net.Tracer.WriteJSON(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if lost := s.Net.Tracer.Lost(); lost > 0 {
		fmt.Fprintf(os.Stderr, "note: %d events dropped (buffer full)\n", lost)
	}
}
