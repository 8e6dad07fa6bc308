package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"manetp2p"
)

// shrunk returns the five workloads cut to 30 simulated seconds and one
// seed per cell, so the whole pipeline runs in a few seconds.
func shrunk() ([]workload, options) {
	shrink := manetp2p.Seconds(30)
	ws := buildWorkloads(shrink)
	for i := range ws {
		ws[i].passes = 1
	}
	return ws, options{root: "..", seed: 1000, rounds: 2, trace: -1, shrink: shrink}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestPipeline runs timed rounds, pass A, pass B and the report on all
// five workloads and checks that every declared metric comes out
// exactly once, with its unit, under a well-formed name.
func TestPipeline(t *testing.T) {
	ws, opt := shrunk()
	rep, spans, err := measure(ws, opt, io.Discard)
	if err != nil {
		if strings.Contains(err.Error(), "cpu profiling already in use") {
			t.Skip("the test binary is itself being profiled")
		}
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads", len(rep.Workloads))
	}
	if len(spans) == 0 {
		t.Error("pass B recorded no spans")
	}
	samples := 0.0
	for i, w := range rep.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		// One seed per cell: 2 rounds + pass A + pass B executions each.
		if want := 4 * len(ws[i].cells); w.Ops != want || w.Failed != 0 {
			t.Errorf("%s: ops %d failed %d, want %d and 0: %v", w.Name, w.Ops, w.Failed, want, w.Errors)
		}
		if len(w.Digest) != 64 {
			t.Errorf("%s: digest %q", w.Name, w.Digest)
		}
		checkMetrics(t, w.Name, endToEndSpecs, w.EndToEnd)
		perLayer := perLayerSpecs
		if w.Name == "paper50" {
			perLayer = append(perLayer[:len(perLayer):len(perLayer)], poolSpeedupSpec)
		}
		checkMetrics(t, w.Name, perLayer, w.PerLayer)
		for _, name := range []string{"wall_s_per_sim_hour", "allocs_per_rep", "alloc_mb_per_rep", "setup_s"} {
			if w.EndToEnd[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, w.EndToEnd[name].Value)
			}
		}
		for _, name := range []string{"sim.events", "radio.tx_frames", "radio.rx_frames", "route.delivered", "p2p.msgs_recv", "trace.overhead_ratio"} {
			if w.PerLayer[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, w.PerLayer[name].Value)
			}
		}
		samples += w.PerLayer["profile.samples"].Value
	}
	if samples == 0 {
		t.Error("pass A decoded no CPU samples from a real profile")
	}

	// The result line of the driver's contract.
	for trace, want := range map[int]int{0: len(endToEndSpecs), 1: len(perLayerSpecs)} {
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]value
		}
		dec := json.NewDecoder(strings.NewReader(resultLine(rep.Workloads[0], trace)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || len(line.Metrics) != want {
			t.Errorf("trace %d: result line %+v with %d metrics, want %d", trace, line, len(line.Metrics), want)
		}
	}

	// A report agrees with itself, and disagrees with a slower copy.
	if !compare(io.Discard, rep, rep) {
		t.Error("a report disagrees with itself")
	}
	slower := *rep
	slower.Workloads = append([]workloadReport(nil), rep.Workloads...)
	w := slower.Workloads[1]
	w.EndToEnd = map[string]value{}
	for k, v := range rep.Workloads[1].EndToEnd {
		w.EndToEnd[k] = v
	}
	w.EndToEnd["wall_s_per_sim_hour"] = value{w.EndToEnd["wall_s_per_sim_hour"].Value * 1.5, "s/h"}
	slower.Workloads[1] = w
	if compare(io.Discard, rep, &slower) {
		t.Error("a 50% slower workload is within the bounds")
	}
}

// checkMetrics holds one metric section to its declaration.
func checkMetrics(t *testing.T, workload string, specs []metricSpec, got map[string]value) {
	t.Helper()
	if len(got) != len(specs) {
		t.Errorf("%s: %d metrics, %d declared", workload, len(got), len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("%s declared twice", s.Name)
		}
		seen[s.Name] = true
		if !metricName.MatchString(s.Name) {
			t.Errorf("metric name %q is malformed", s.Name)
		}
		v, ok := got[s.Name]
		if !ok || v.Unit == "" || v.Unit != s.Unit {
			t.Errorf("%s: metric %s present=%v unit %q, want unit %q", workload, s.Name, ok, v.Unit, s.Unit)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, equal
// to the tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("paths %v", decl.Paths)
	}
	if strings.Join(decl.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command %v", decl.Command)
	}
	ws := buildWorkloads(0)
	if len(decl.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d built", len(decl.Workloads), len(ws))
	}
	for i, w := range ws {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: declared %+v, built %q: %q", i, decl.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		what       string
		decl, want []metricSpec
	}{{"end_to_end", decl.EndToEnd, endToEndSpecs}, {"per_layer", decl.PerLayer, perLayerSpecs}} {
		if len(c.decl) != len(c.want) {
			t.Errorf("%s: %d declared, %d reported", c.what, len(c.decl), len(c.want))
			continue
		}
		for i := range c.want {
			if c.decl[i] != c.want[i] {
				t.Errorf("%s[%d]: declared %+v, reported %+v", c.what, i, c.decl[i], c.want[i])
			}
		}
	}
}
