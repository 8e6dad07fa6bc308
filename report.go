package manetp2p

import (
	"fmt"
	"io"
	"sort"

	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
)

// This file renders results in the paper's shapes: Figures 5–6 as
// per-file curves, Figures 7–12 as per-node descending series, and
// Tables 1–2. All emitters write TSV so the series can be piped into
// any plotting tool.

// WriteFileCurves emits the Figure 5/6 series for several algorithm
// results side by side: one row per file rank with distance and answer
// columns per algorithm.
func WriteFileCurves(w io.Writer, results []*Result, maxFiles int) error {
	if len(results) == 0 {
		return nil
	}
	fmt.Fprintf(w, "# avg minimum distance (p2p hops) and avg answers per request, by file rank\n")
	fmt.Fprintf(w, "file")
	for _, r := range results {
		a := r.Scenario.Algorithm
		fmt.Fprintf(w, "\tdist:%s\tansw:%s", a, a)
	}
	fmt.Fprintln(w)
	n := maxFiles
	for _, r := range results {
		if len(r.PerFile) < n {
			n = len(r.PerFile)
		}
	}
	for f := 0; f < n; f++ {
		fmt.Fprintf(w, "%d", f+1) // the paper labels files 1..10
		for _, r := range results {
			fc := r.PerFile[f]
			fmt.Fprintf(w, "\t%.3f\t%.3f", fc.Distance.Mean, fc.Answers.Mean)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// SeriesKind selects which Figure 7–12 series to render.
type SeriesKind int

// The counted message series of the paper's figures.
const (
	SeriesConnect SeriesKind = iota // Figures 7–8
	SeriesPing                      // Figures 9–10
	SeriesQuery                     // Figures 11–12
)

// seriesKinds names each series as the paper does and reads it from a
// Result, indexed by SeriesKind.
var seriesKinds = [...]struct {
	name string
	of   func(*Result) []float64
}{
	SeriesConnect: {"connect", func(r *Result) []float64 { return r.ConnectSeries }},
	SeriesPing:    {"ping", func(r *Result) []float64 { return r.PingSeries }},
	SeriesQuery:   {"query", func(r *Result) []float64 { return r.QuerySeries }},
}

func (k SeriesKind) valid() bool { return k >= 0 && int(k) < len(seriesKinds) }

// String names the series as the paper does.
func (k SeriesKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("series(%d)", int(k))
	}
	return seriesKinds[k].name
}

func (r *Result) series(k SeriesKind) []float64 {
	if !k.valid() {
		return nil
	}
	return seriesKinds[k].of(r)
}

// WriteNodeSeries emits a Figure 7–12 style table: per node rank
// (decreasingly ordered by received messages), the mean count for each
// algorithm.
func WriteNodeSeries(w io.Writer, kind SeriesKind, results []*Result) error {
	if len(results) == 0 {
		return nil
	}
	fmt.Fprintf(w, "# number of %s messages received; nodes decreasingly ordered\n", kind)
	fmt.Fprintf(w, "rank")
	for _, r := range results {
		fmt.Fprintf(w, "\t%s", r.Scenario.Algorithm)
	}
	fmt.Fprintln(w)
	n := 0
	for _, r := range results {
		if s := r.series(kind); len(s) > n {
			n = len(s)
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%d", i)
		for _, r := range results {
			s := r.series(kind)
			if i < len(s) {
				fmt.Fprintf(w, "\t%.2f", s[i])
			} else {
				fmt.Fprintf(w, "\t")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteTrafficSeries emits the time-bucketed message-rate series (per
// member per bucket) for several results side by side. Results without
// bucketing contribute empty columns.
func WriteTrafficSeries(w io.Writer, results []*Result) error {
	if len(results) == 0 {
		return nil
	}
	fmt.Fprintf(w, "# connect and query messages received per member per bucket\n")
	fmt.Fprintf(w, "bucket")
	for _, r := range results {
		a := r.Scenario.Algorithm
		fmt.Fprintf(w, "\tconn:%s\tquery:%s", a, a)
	}
	fmt.Fprintln(w)
	n := 0
	for _, r := range results {
		if len(r.ConnectTraffic) > n {
			n = len(r.ConnectTraffic)
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%d", i)
		for _, r := range results {
			if i < len(r.ConnectTraffic) {
				fmt.Fprintf(w, "\t%.2f", r.ConnectTraffic[i])
			} else {
				fmt.Fprintf(w, "\t")
			}
			if i < len(r.QueryTraffic) {
				fmt.Fprintf(w, "\t%.2f", r.QueryTraffic[i])
			} else {
				fmt.Fprintf(w, "\t")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteTable1 renders the paper's Table 1.
func WriteTable1(w io.Writer) {
	fmt.Fprintln(w, "# Table 1: topologies and their characteristics")
	fmt.Fprintf(w, "%-16s%-14s%-15s%s\n", "", "Centralized", "Decentralized", "Hybrid")
	for _, row := range p2p.Table1() {
		fmt.Fprintf(w, "%-16s%-14s%-15s%s\n", row.Property, row.Values[0], row.Values[1], row.Values[2])
	}
}

// WriteTable2 renders the paper's Table 2 from a scenario's actual
// parameters.
func WriteTable2(w io.Writer, sc Scenario) {
	fmt.Fprintln(w, "# Table 2: parameters used and their typical values")
	rows := []struct {
		name  string
		value string
	}{
		{"transmission range", fmt.Sprintf("%g m", sc.Range)},
		{"number of distinct searchable files", fmt.Sprintf("%d", sc.Files.NumFiles)},
		{"frequency of the most popular file", fmt.Sprintf("%g%%", sc.Files.MaxFreq*100)},
		{"NHOPS_INITIAL", fmt.Sprintf("%d ad-hoc hops", sc.Params.NHopsInitial)},
		{"MAXNHOPS", fmt.Sprintf("%d ad-hoc hops", sc.Params.MaxNHops)},
		{"NHOPS (Basic Algorithm)", fmt.Sprintf("%d ad-hoc hops", sc.Params.NHopsBasic)},
		{"MAXDIST", fmt.Sprintf("%d ad-hoc hops", sc.Params.MaxDist)},
		{"MAXNCONN", fmt.Sprintf("%d", sc.Params.MaxNConn)},
		{"MAXNSLAVES", fmt.Sprintf("%d", sc.Params.MaxNSlaves)},
		{"TTL for queries", fmt.Sprintf("%d p2p hops", sc.Params.QueryTTL)},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-40s%s\n", r.name, r.value)
	}
}

// WriteSummary prints a human-readable digest of one result: the
// scenario header followed by every telemetry section's render hook, in
// list order (telemetry_sections.go).
func WriteSummary(w io.Writer, r *Result) {
	sc := r.Scenario
	fmt.Fprintf(w, "== %s: %s, %d nodes (%.0f%% p2p), %s x %d reps ==\n",
		sc.Name, sc.Algorithm, sc.NumNodes, sc.MemberFraction*100,
		sim.Time(sc.Duration), sc.Replications)
	for _, s := range sections {
		if s.render != nil {
			s.render(w, r)
		}
	}
}

// GiniCoefficient measures how unevenly a per-node series distributes
// load (0 = perfectly even, →1 = concentrated). The paper argues the
// uniform distributions of Regular/Random suit homogeneous networks
// while Hybrid deliberately skews load onto masters; this makes that
// argument quantitative.
func GiniCoefficient(series []float64) float64 {
	n := len(series)
	if n == 0 {
		return 0
	}
	xs := append([]float64(nil), series...)
	sort.Float64s(xs)
	var cum, total float64
	for i, x := range xs {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n)
}
