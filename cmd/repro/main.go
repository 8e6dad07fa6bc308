// Command repro regenerates every table and figure of the paper's
// evaluation (§7): Tables 1–2 and Figures 5–12. Output is TSV, one
// block per experiment, in the same row/series structure the paper
// plots.
//
// Usage:
//
//	repro                     # everything, paper-fidelity (33 reps) — slow
//	repro -fast               # everything at 5 replications
//	repro -exp fig7           # a single experiment
//	repro -exp fig5,fig7,table2
//
// Figures 5/7/9/11 share the 50-node runs (one per algorithm), and
// Figures 6/8/10/12 share the 150-node runs, so each population is
// simulated once per algorithm regardless of how many figures are
// requested.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"manetp2p"
	"manetp2p/internal/prof"
)

// experiment maps a paper artifact to the runs and renderer it needs.
type experiment struct {
	nodes int // 0 = no simulation needed (tables)
	print func(results []*manetp2p.Result)
}

// experiments is every artifact repro can regenerate; order is the
// sequence "all" prints them in.
var experiments = map[string]experiment{
	"table1": {print: func([]*manetp2p.Result) { manetp2p.WriteTable1(os.Stdout) }},
	"table2": {print: func([]*manetp2p.Result) {
		manetp2p.WriteTable2(os.Stdout, manetp2p.DefaultScenario(50, manetp2p.Regular))
	}},
	"fig5": {nodes: 50, print: func(rs []*manetp2p.Result) {
		fmt.Println("# Figure 5: distance to find the file and # of answers per request (50 nodes, 75% p2p)")
		check(manetp2p.WriteFileCurves(os.Stdout, rs, 10))
	}},
	"fig6": {nodes: 150, print: func(rs []*manetp2p.Result) {
		fmt.Println("# Figure 6: distance to find the file and # of answers per request (150 nodes, 75% p2p)")
		check(manetp2p.WriteFileCurves(os.Stdout, rs, 10))
	}},
	"fig7": {nodes: 50, print: func(rs []*manetp2p.Result) {
		fmt.Println("# Figure 7: connect messages (50 nodes, 75% p2p)")
		check(manetp2p.WriteNodeSeries(os.Stdout, manetp2p.SeriesConnect, rs))
	}},
	"fig8": {nodes: 150, print: func(rs []*manetp2p.Result) {
		fmt.Println("# Figure 8: connect messages (150 nodes, 75% p2p)")
		check(manetp2p.WriteNodeSeries(os.Stdout, manetp2p.SeriesConnect, rs))
	}},
	"fig9": {nodes: 50, print: func(rs []*manetp2p.Result) {
		fmt.Println("# Figure 9: pings (50 nodes, 75% p2p)")
		check(manetp2p.WriteNodeSeries(os.Stdout, manetp2p.SeriesPing, rs))
	}},
	"fig10": {nodes: 150, print: func(rs []*manetp2p.Result) {
		fmt.Println("# Figure 10: pings (150 nodes, 75% p2p)")
		check(manetp2p.WriteNodeSeries(os.Stdout, manetp2p.SeriesPing, rs))
	}},
	"fig11": {nodes: 50, print: func(rs []*manetp2p.Result) {
		fmt.Println("# Figure 11: queries (50 nodes, 75% p2p)")
		check(manetp2p.WriteNodeSeries(os.Stdout, manetp2p.SeriesQuery, rs))
	}},
	"fig12": {nodes: 150, print: func(rs []*manetp2p.Result) {
		fmt.Println("# Figure 12: queries (150 nodes, 75% p2p)")
		check(manetp2p.WriteNodeSeries(os.Stdout, manetp2p.SeriesQuery, rs))
	}},
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
		reps    = flag.Int("reps", 33, "replications per scenario (paper: 33)")
		fast    = flag.Bool("fast", false, "shortcut for -reps 5")
		seed    = flag.Int64("seed", 1, "base random seed")
		quiet   = flag.Bool("q", false, "suppress progress messages on stderr")
	)
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()
	if *fast {
		*reps = 5
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Flushed on the normal return path; error paths os.Exit and drop
	// the partial profile.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	wanted, err := parseExperiments(*expFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Figures with the same node count share one set of runs.
	cache := map[int][]*manetp2p.Result{}
	runsFor := func(nodes int) []*manetp2p.Result {
		if rs, ok := cache[nodes]; ok {
			return rs
		}
		var rs []*manetp2p.Result
		for _, alg := range manetp2p.Algorithms() {
			sc := manetp2p.DefaultScenario(nodes, alg)
			sc.Replications = *reps
			sc.Seed = *seed
			if !*quiet {
				fmt.Fprintf(os.Stderr, "running %s x%d reps...", sc.Name, *reps)
			}
			start := time.Now()
			res, err := manetp2p.Run(sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
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
		exp.print(rs)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
