// Command repro regenerates every table and figure of the paper's
// evaluation (§7): Tables 1–2 and Figures 5–12. Output is TSV, one
// block per experiment, in the same row/series structure the paper
// plots.
//
// Usage:
//
//	repro                     # everything, paper-fidelity (33 reps) — slow
//	repro -reps 5             # everything at 5 replications
//	repro -exp fig7           # a single experiment
//	repro -exp fig5,fig7,table2
//	repro -reps 5 -exp fig7 -routing dsr
//
// Figures 5/7/9/11 share the 50-node runs (one per algorithm), and
// Figures 6/8/10/12 share the 150-node runs, so each population is
// simulated once per algorithm regardless of how many figures are
// requested. Every run starts from cmd/internal/scenarioflag's scenario;
// each figure sets the node count and algorithm, so -nodes and -alg are
// refused.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"manetp2p"
	"manetp2p/cmd/internal/prof"
	"manetp2p/cmd/internal/scenarioflag"
)

// experiment maps a paper artifact to the runs and renderer it needs.
type experiment struct {
	nodes int // 0 = no simulation needed (tables)
	print func(base manetp2p.Scenario, results []*manetp2p.Result)
}

// figure is Figure n: what it plots for the nodes-node runs, drawn by write.
func figure(n, nodes int, what string, write func(io.Writer, []*manetp2p.Result) error) experiment {
	return experiment{nodes: nodes, print: func(base manetp2p.Scenario, rs []*manetp2p.Result) {
		fmt.Printf("# Figure %d: %s (%d nodes, %g%% p2p)\n", n, what, nodes, 100*base.MemberFraction)
		exitOn(write(os.Stdout, rs), 1)
	}}
}

// series draws the nodes' received-message counts of one kind, in
// descending order.
func series(kind manetp2p.SeriesKind) func(io.Writer, []*manetp2p.Result) error {
	return func(w io.Writer, rs []*manetp2p.Result) error { return manetp2p.WriteNodeSeries(w, kind, rs) }
}

// curves draws the per-file distance and answer curves.
func curves(w io.Writer, rs []*manetp2p.Result) error { return manetp2p.WriteFileCurves(w, rs, 10) }

const curvesPlot = "distance to find the file and # of answers per request"

// experiments is every artifact repro can regenerate; order is the
// sequence "all" prints them in.
var experiments = map[string]experiment{
	"table1": {print: func(manetp2p.Scenario, []*manetp2p.Result) { manetp2p.WriteTable1(os.Stdout) }},
	"table2": {print: func(base manetp2p.Scenario, _ []*manetp2p.Result) { manetp2p.WriteTable2(os.Stdout, base) }},
	"fig5":   figure(5, 50, curvesPlot, curves),
	"fig6":   figure(6, 150, curvesPlot, curves),
	"fig7":   figure(7, 50, "connect messages", series(manetp2p.SeriesConnect)),
	"fig8":   figure(8, 150, "connect messages", series(manetp2p.SeriesConnect)),
	"fig9":   figure(9, 50, "pings", series(manetp2p.SeriesPing)),
	"fig10":  figure(10, 150, "pings", series(manetp2p.SeriesPing)),
	"fig11":  figure(11, 50, "queries", series(manetp2p.SeriesQuery)),
	"fig12":  figure(12, 150, "queries", series(manetp2p.SeriesQuery)),
}

var order = []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}

// parseExperiments resolves the -exp flag: "all", or a comma-separated
// list of experiment names.
func parseExperiments(list string) ([]string, error) {
	if list == "all" {
		return order, nil
	}
	var wanted []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if _, ok := experiments[name]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", name, strings.Join(order, ", "))
		}
		wanted = append(wanted, name)
	}
	return wanted, nil
}

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiments: table1,table2,fig5..fig12 or all")
		quiet   = flag.Bool("q", false, "suppress progress messages on stderr")
	)
	scenario := scenarioFlags(flag.CommandLine)
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()
	base, err := scenario.Scenario()
	exitOn(err, 2)
	// Every run is base with a figure's node count and algorithm fixed:
	// an invalid field is refused here, before a profile file is opened.
	exitOn(base.Validate(), 2)
	wanted, err := parseExperiments(*expFlag)
	exitOn(err, 2)

	stopProf, err := profFlags.Start()
	exitOn(err, 2)
	// Flushed on the normal return path; error paths os.Exit and drop
	// the partial profile.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	// Figures with the same node count share one set of runs.
	cache := map[int][]*manetp2p.Result{}
	runsFor := func(nodes int) []*manetp2p.Result {
		if rs, ok := cache[nodes]; ok {
			return rs
		}
		var rs []*manetp2p.Result
		for _, alg := range manetp2p.Algorithms() {
			sc := base
			scenario.Fix(&sc, nodes, alg)
			if !*quiet {
				fmt.Fprintf(os.Stderr, "running %s x%d reps...", sc.Name, sc.Replications)
			}
			start := time.Now()
			res, err := manetp2p.Run(sc)
			exitOn(err, 1)
			if !*quiet {
				fmt.Fprintf(os.Stderr, " done in %v\n", time.Since(start).Round(time.Millisecond))
			}
			rs = append(rs, res)
		}
		cache[nodes] = rs
		return rs
	}

	for i, name := range wanted {
		if i > 0 {
			fmt.Println()
		}
		exp := experiments[name]
		var rs []*manetp2p.Result
		if exp.nodes > 0 {
			rs = runsFor(exp.nodes)
		}
		exp.print(base, rs)
	}
}

// scenarioFlags registers repro's scenario flags.
func scenarioFlags(fs *flag.FlagSet) *scenarioflag.Flags {
	return scenarioflag.Register(fs, func(*manetp2p.Scenario) {}, "nodes", "alg")
}

// exitOn prints err and exits with code unless err is nil.
func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}
