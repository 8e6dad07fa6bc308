// Command p2psim runs one scenario of the paper's simulation study and
// prints a summary plus (optionally) the per-figure series.
//
// Usage:
//
//	p2psim -nodes 50 -alg regular -duration 3600 -reps 33
//	p2psim -nodes 150 -alg hybrid -series connect
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

func parseAlg(s string) (manetp2p.Algorithm, error) {
	for _, a := range manetp2p.Algorithms() {
		if strings.EqualFold(a.String(), s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (basic|regular|random|hybrid)", s)
}

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
		nodes      = flag.Int("nodes", 50, "number of ad-hoc nodes")
		algName    = flag.String("alg", "regular", "algorithm: basic|regular|random|hybrid")
		duration   = flag.Float64("duration", 3600, "simulated seconds per replication")
		reps       = flag.Int("reps", 33, "replications")
		seed       = flag.Int64("seed", 1, "base random seed")
		fraction   = flag.Float64("p2p", 0.75, "fraction of nodes in the p2p overlay")
		speed      = flag.Float64("speed", 1.0, "max node speed, m/s")
		area       = flag.Float64("area", 100, "square arena side, metres")
		rng        = flag.Float64("range", 10, "radio range, metres")
		series     = flag.String("series", "", "also print a node series: connect|ping|query")
		curves     = flag.Bool("curves", false, "also print the per-file distance/answer curves")
		quals      = flag.Bool("classes", false, "use phone/PDA/notebook device classes (hybrid)")
		traceOut   = flag.String("trace", "", "run a single replication and write a JSON-lines event trace to this file ('-' = stdout)")
		routing    = flag.String("routing", "aodv", "routing substrate: aodv|dsr|dsdv|flood")
		traffic    = flag.Float64("traffic", 0, "also print message-rate series with this bucket width in seconds")
		faults     = flag.String("faults", "", "load a fault-injection plan from this JSON file ('-' = stdin) and print recovery metrics")
		workload   = flag.String("workload", "", "load a workload plan from this JSON file ('-' = stdin) and print demand telemetry")
		health     = flag.Float64("health", 0, "resilience-telemetry sampling period in seconds (default 10 when -faults is set)")
		config     = flag.String("config", "", "load the scenario from a JSON file ('-' = stdin); other scenario flags are ignored")
		saveCfg    = flag.String("save-config", "", "write the effective scenario as JSON to this file and exit")
		selfcheck  = flag.Bool("selfcheck", false, "run the invariant suite and determinism self-audit on the scenario and exit nonzero on any violation")
		peercache  = flag.Bool("peercache", false, "enable the peer-cache extension (cached rendezvous before flooding)")
		ckptPath   = flag.String("checkpoint", "", "persist every finished replication to this checkpoint file; if it already holds this scenario, continue from it")
		resume     = flag.String("resume", "", "resume a run from this checkpoint file; scenario flags are ignored")
		metricsOut = flag.String("metrics", "", "stream the per-replication telemetry time series as JSON lines to this file ('-' = stdout)")
	)
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()

	seriesKind, err := parseSeries(*series)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
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

	var sc manetp2p.Scenario
	if *config != "" {
		loaded, err := manetp2p.LoadScenario(*config)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc = loaded
	} else {
		alg, err := parseAlg(*algName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc = manetp2p.DefaultScenario(*nodes, alg)
		sc.Duration = manetp2p.Seconds(*duration)
		sc.Replications = *reps
		sc.Seed = *seed
		sc.MemberFraction = *fraction
		sc.MaxSpeed = *speed
		sc.AreaSide = *area
		sc.Range = *rng
	}
	if *config == "" {
		if *quals {
			sc.Quals = manetp2p.DeviceClasses()
		}
		switch strings.ToLower(*routing) {
		case "aodv":
			sc.Routing = manetp2p.RoutingAODV
		case "dsr":
			sc.Routing = manetp2p.RoutingDSR
		case "dsdv":
			sc.Routing = manetp2p.RoutingDSDV
		case "flood":
			sc.Routing = manetp2p.RoutingFlood
		default:
			fmt.Fprintf(os.Stderr, "unknown routing %q\n", *routing)
			os.Exit(2)
		}
		if *traffic > 0 {
			sc.TrafficBucket = manetp2p.Seconds(*traffic)
		}
	}
	if *faults != "" {
		plan, err := manetp2p.LoadFaultPlan(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc.Faults = plan
	}
	if *workload != "" {
		plan, err := manetp2p.LoadWorkloadPlan(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc.Workload = plan
	}
	if *health > 0 {
		sc.HealthEvery = manetp2p.Seconds(*health)
	}
	if *peercache {
		sc.Params.PeerCache.Enabled = true
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
	fmt.Printf("  stepping independence (8 Step segments == one, state digest): %s\n", pass(rep.StepIndependent))
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
