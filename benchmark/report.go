package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"manetp2p/internal/telemetry"
)

// metricSpec declares one metric the way BENCHMARK.json lists it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndSpecs are the metrics a user of the simulator sees, all from
// untraced executions. The bounds are set from the spread between
// benchmark seeds (README.md, "Bounds").
var endToEndSpecs = []metricSpec{
	{"wall_s_per_sim_hour", "s/h", lower, 0.25},
	{"allocs_per_rep", "count", lower, 0.20},
	{"alloc_mb_per_rep", "MB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// setupFloor is the absolute difference below which -compare does not
// hold setup_s to its relative bound: set-up is tens of milliseconds on
// the 50-node workloads.
const setupFloor = 0.050

// perLayerSpecs are the traced metrics, named after the repository's
// packages ("root" is package manetp2p).
var perLayerSpecs = func() []metricSpec {
	var specs []metricSpec
	for _, l := range layers {
		specs = append(specs, metricSpec{Name: l + ".cpu_s_per_sim_hour", Unit: "s/h", Better: lower})
	}
	return append(specs, []metricSpec{
		{Name: "runtime.gc_cpu_s_per_sim_hour", Unit: "s/h", Better: lower},
		{Name: "profile.samples", Unit: "count", Better: higher},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},

		{Name: "manet.build_s", Unit: "s", Better: lower},
		{Name: "sim.run_s", Unit: "s", Better: lower},
		{Name: "sim.run_self_s", Unit: "s", Better: lower},
		{Name: "p2p.recv_s", Unit: "s", Better: lower},
		{Name: "p2p.recv_calls", Unit: "count", Better: lower},
		{Name: "graphs.analyze_s", Unit: "s", Better: lower},
		{Name: "graphs.snapshots", Unit: "count", Better: lower},
		{Name: "graphs.ns_per_snapshot", Unit: "ns", Better: lower},

		{Name: "sim.events", Unit: "count", Better: lower},
		{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
		{Name: "radio.tx_frames", Unit: "count", Better: lower},
		{Name: "radio.rx_frames", Unit: "count", Better: lower},
		{Name: "radio.fanout", Unit: "ratio", Better: lower},
		{Name: "radio.lost_ratio", Unit: "ratio", Better: lower},
		{Name: "radio.ns_per_rx_frame", Unit: "ns", Better: lower},
		{Name: "route.delivered", Unit: "count", Better: higher},
		{Name: "route.frames_per_delivery", Unit: "ratio", Better: lower},
		{Name: "route.dup_hits", Unit: "count", Better: lower},
		{Name: "route.dup_ratio", Unit: "ratio", Better: lower},
		{Name: "route.ctrl_frames", Unit: "count", Better: lower},
		{Name: "route.bcast_frames", Unit: "count", Better: lower},
		{Name: "route.discoveries", Unit: "count", Better: lower},
		{Name: "route.discover_failed_ratio", Unit: "ratio", Better: lower},
		{Name: "route.sendfail_ratio", Unit: "ratio", Better: lower},
		{Name: "p2p.msgs_recv", Unit: "count", Better: lower},
		{Name: "p2p.found_ratio", Unit: "ratio", Better: higher},
		{Name: "manet.live_heap_mb", Unit: "MB", Better: lower},
		{Name: "invariant.violations", Unit: "count", Better: lower},
	}...)
}()

// poolSpeedupSpec is the runner's own figure, measured on paper50 in a
// full run only, so it is not among the metrics every workload reports.
var poolSpeedupSpec = metricSpec{Name: "root.pool_speedup", Unit: "ratio", Better: higher}

// ratio divides, giving 0 for an empty denominator so every metric
// stays a finite number: the simulator's own guard for derived ratios.
var ratio = telemetry.SafeRatio

// perLayer turns the traced passes into the per-layer metrics.
func (r *run) perLayer(cpu map[string]float64, samples int, wallA float64, b passB) map[string]float64 {
	hours := r.simHours()
	untracedA := 0.0
	for i := range r.reps {
		untracedA += r.bestWall(i)
	}
	m := map[string]float64{}
	for _, l := range layers {
		m[l+".cpu_s_per_sim_hour"] = cpu[l] / hours
	}
	m["runtime.gc_cpu_s_per_sim_hour"] = cpu[layerGC] / hours
	m["profile.samples"] = float64(samples)
	m["trace.overhead_ratio"] = ratio(wallA+b.wall, untracedA+b.untraced)

	recv, analyze, step := b.spans.get("p2p.recv"), b.spans.get("graphs.analyze"), b.spans.get("sim.run")
	m["manet.build_s"] = b.spans.get("manet.build").TotalS
	m["sim.run_s"] = step.TotalS
	m["sim.run_self_s"] = step.TotalS - recv.TotalS - analyze.TotalS
	m["p2p.recv_s"] = recv.TotalS
	m["p2p.recv_calls"] = float64(recv.Count)
	m["graphs.analyze_s"] = analyze.TotalS
	m["graphs.snapshots"] = float64(analyze.Count)
	m["graphs.ns_per_snapshot"] = ratio(analyze.TotalS*1e9, float64(analyze.Count))

	c, rt := b.counts, b.counts.Route
	m["sim.events"] = float64(c.Events)
	m["sim.ns_per_event"] = ratio(b.untraced*1e9, float64(c.Events))
	m["radio.tx_frames"] = float64(c.TxFrames)
	m["radio.rx_frames"] = float64(c.RxFrames)
	m["radio.fanout"] = ratio(float64(c.RxFrames), float64(c.TxFrames))
	m["radio.lost_ratio"] = ratio(float64(c.Lost), float64(c.Attempted))
	m["radio.ns_per_rx_frame"] = ratio(b.untraced*1e9, float64(c.RxFrames))
	m["route.delivered"] = float64(rt.Delivered)
	m["route.frames_per_delivery"] = ratio(float64(rt.Frames()), float64(rt.Delivered))
	m["route.dup_hits"] = float64(rt.DupHits)
	m["route.dup_ratio"] = ratio(float64(rt.DupHits), float64(c.RxFrames))
	m["route.ctrl_frames"] = float64(rt.CtrlOrig + rt.CtrlRelayed)
	m["route.bcast_frames"] = float64(rt.BcastOrig + rt.BcastRelayed)
	m["route.discoveries"] = float64(rt.Discoveries)
	m["route.discover_failed_ratio"] = ratio(float64(rt.DiscoverFailed), float64(rt.Discoveries))
	m["route.sendfail_ratio"] = ratio(float64(rt.SendFailed), float64(rt.DataSent))
	m["p2p.msgs_recv"] = float64(c.MsgsRecv)
	m["p2p.found_ratio"] = ratio(float64(c.Found), float64(c.Queries))
	m["manet.live_heap_mb"] = ratio(float64(c.LiveHeap)/1e6, float64(len(b.perRep))) // mean over the traced replications
	for _, ex := range r.first {
		m["invariant.violations"] += float64(ex.violations)
	}
	return m
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the declared units, and reports a computed metric
// no spec declares or a declared one nothing computed.
func withUnits(specs []metricSpec, m map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(m))
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = value{v, s.Unit}
	}
	if len(out) != len(m) {
		for name := range m {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// workloadReport is one workload's section of the report.
type workloadReport struct {
	Name         string           `json:"name"`
	Replications int              `json:"replications"` // distinct (cell, seed) pairs timed
	Ops          int              `json:"ops"`          // executions: all rounds and traced passes
	Failed       int              `json:"failed"`
	Errors       []string         `json:"errors,omitempty"`
	Digest       string           `json:"digest"`
	RoundSpread  float64          `json:"round_spread"`
	EndToEnd     map[string]value `json:"end_to_end"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	CPUShares    map[string]value `json:"cpu_shares,omitempty"` // for reading; not named metrics
}

// report is the whole output of one invocation.
type report struct {
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Rounds    int              `json:"rounds"`
	Noisy     bool             `json:"noisy"`
	Workloads []workloadReport `json:"workloads"`
}

// print writes every metric by name with its unit.
func (w *workloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s: %d replications, ops %d, failed %d, round spread %.1f%%, digest %s\n",
		w.Name, w.Replications, w.Ops, w.Failed, w.RoundSpread*100, w.Digest[:16])
	printMetrics(out, endToEndSpecs, w.EndToEnd, nil)
	if w.PerLayer != nil {
		printMetrics(out, append(perLayerSpecs, poolSpeedupSpec), w.PerLayer, w.CPUShares)
	}
}

func printMetrics(out io.Writer, specs []metricSpec, m, shares map[string]value) {
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-32s %14.6g %-6s", s.Name, v.Value, v.Unit)
		if sh, ok := shares[s.Name]; ok {
			fmt.Fprintf(out, " %5.1f%%", sh.Value)
		}
		fmt.Fprintln(out)
	}
}

// cpuShares renders each layer's share of the profiled CPU time.
func cpuShares(cpu map[string]float64) map[string]value {
	total := 0.0
	for bucket, s := range cpu {
		if bucket != layerBenchmark {
			total += s
		}
	}
	shares := map[string]value{}
	for _, l := range layers {
		shares[l+".cpu_s_per_sim_hour"] = value{100 * ratio(cpu[l], total), "%"}
	}
	shares["runtime.gc_cpu_s_per_sim_hour"] = value{100 * ratio(cpu[layerGC], total), "%"}
	return shares
}

// writeJSON writes v indented to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readReport loads a report written by -o.
func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare prints, per workload and end-to-end metric, both values,
// their relative difference and the metric's bound, and reports whether
// the two reports agree: every pair within its bound, and every digest
// and allocation count that must repeat exactly doing so. It is the
// tool two sets of runs of the same code are checked with.
func compare(out io.Writer, a, b *report) bool {
	agree := true
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(out, "%-10s %-22s %14s %14s %8s %7s\n", "workload", "metric", "a", "b", "diff", "bound")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(out, "%-10s missing from the second report\n", wa.Name)
			agree = false
			continue
		}
		for _, s := range endToEndSpecs {
			va, vb := wa.EndToEnd[s.Name].Value, wb.EndToEnd[s.Name].Value
			diff := ratio(vb-va, va)
			verdict := ""
			beyond := math.Abs(diff) > s.Bound
			if s.Name == "setup_s" && math.Abs(vb-va) < setupFloor {
				beyond = false
			}
			if beyond {
				verdict = "  DISAGREE"
				agree = false
			}
			fmt.Fprintf(out, "%-10s %-22s %14.6g %14.6g %+7.2f%% %6.0f%%%s\n",
				wa.Name, s.Name, va, vb, diff*100, s.Bound*100, verdict)
		}
		// With equal seeds and replication counts the inputs are equal,
		// so what is deterministic must match exactly.
		if a.Seed == b.Seed && wa.Replications == wb.Replications {
			if wa.Digest != wb.Digest {
				fmt.Fprintf(out, "%-10s digest %s vs %s  DISAGREE\n", wa.Name, wa.Digest[:16], wb.Digest[:16])
				agree = false
			}
			for _, name := range exactNames(wa.PerLayer) {
				if va, vb := wa.PerLayer[name].Value, wb.PerLayer[name].Value; va != vb {
					fmt.Fprintf(out, "%-10s %-22s %14.6g %14.6g  count differs  DISAGREE\n", wa.Name, name, va, vb)
					agree = false
				}
			}
		}
	}
	return agree
}

// exactNames lists the pass-B counters present in m: the per-layer
// metrics whose unit is a count, except the profile's sample count.
func exactNames(m map[string]value) []string {
	var names []string
	for _, s := range perLayerSpecs {
		if _, ok := m[s.Name]; ok && s.Unit == "count" && s.Name != "profile.samples" {
			names = append(names, s.Name)
		}
	}
	return names
}
