package main

import (
	"path/filepath"
	"strings"
	"testing"

	"manetp2p"
)

// Every point of every registered axis, applied to a small base
// scenario, must still pass Validate — an axis may not sweep a scenario
// out of range.
func TestEveryAxisPointIsValid(t *testing.T) {
	for name, spec := range registry() {
		if len(spec.points) == 0 {
			t.Errorf("axis %s has no points", name)
		}
		if (spec.cells == nil) != (len(spec.headers) == 0) {
			t.Errorf("axis %s: extra headers %v without matching cells", name, spec.headers)
		}
		for _, pt := range spec.points {
			sc := manetp2p.DefaultScenario(20, manetp2p.Regular)
			sc.Duration = manetp2p.Seconds(60)
			pt.mod(&sc)
			if err := sc.Validate(); err != nil {
				t.Errorf("axis %s point %s: %v", name, pt.label, err)
			}
		}
	}
}

// The routing and mobility axes are the library's tables, entry for
// entry: a new router or model appears in the sweep without an edit here.
func TestKindAxesListTheTables(t *testing.T) {
	reg := registry()
	routing, mobility := reg["routing"].points, reg["mobility"].points
	if len(routing) != len(manetp2p.Routings()) || len(mobility) != len(manetp2p.Mobilities()) {
		t.Fatalf("%d routing and %d mobility points for tables of %d and %d",
			len(routing), len(mobility), len(manetp2p.Routings()), len(manetp2p.Mobilities()))
	}
	for i, k := range manetp2p.Routings() {
		sc := manetp2p.Scenario{Routing: -1}
		routing[i].mod(&sc)
		if sc.Routing != k || routing[i].label != strings.ToLower(k.String()) {
			t.Errorf("routing point %d = %q selecting %v, want %v", i, routing[i].label, sc.Routing, k)
		}
	}
	for i, k := range manetp2p.Mobilities() {
		sc := manetp2p.Scenario{Mobility: -1}
		mobility[i].mod(&sc)
		if sc.Mobility != k || mobility[i].label != strings.ToLower(k.String()) {
			t.Errorf("mobility point %d = %q selecting %v, want %v", i, mobility[i].label, sc.Mobility, k)
		}
	}
}

func TestCellFilePath(t *testing.T) {
	for _, tc := range []struct {
		axis, label string
		alg         manetp2p.Algorithm
		ext, want   string
	}{
		{"density", "50", manetp2p.Regular, "ckpt", "density_50_regular.ckpt"},
		{"speed", "0.5m/s", manetp2p.Hybrid, "jsonl", "speed_0-5m-s_hybrid.jsonl"},
		{"../x", "a b", manetp2p.Basic, "ckpt", "---x_a-b_basic.ckpt"},
	} {
		if got, want := cellFilePath("dir", tc.axis, tc.label, tc.alg, tc.ext), filepath.Join("dir", tc.want); got != want {
			t.Errorf("cellFilePath(%q, %q, %v) = %q, want %q", tc.axis, tc.label, tc.alg, got, want)
		}
	}
}

func TestFormatRow(t *testing.T) {
	res := &manetp2p.Result{
		PerFile: []manetp2p.FileCurve{
			{Requests: 30, FoundRate: 0.5},
			{Requests: 10, FoundRate: 0.1},
		},
	}
	res.PerFile[0].Distance.N, res.PerFile[0].Distance.Mean = 15, 2
	res.PerFile[1].Distance.N, res.PerFile[1].Distance.Mean = 1, 4
	res.PerFile[0].Answers.Mean, res.PerFile[1].Answers.Mean = 1.5, 0.5
	res.Deaths.Mean = 0.25
	res.Overlay.LargestComponent.Mean = 0.5

	// found% = (15+1)/40, dist = mean of the per-file means, answers
	// weighted by requests; the message totals are zero here.
	want := "10m\tRegular\t0.0\t0.0\t0.0\t40.0\t3.00\t1.25\t0.2\t0.50"
	if got := formatRow("10m", manetp2p.Regular, res, axisSpec{}); got != want {
		t.Errorf("formatRow = %q\nwant       %q", got, want)
	}
	spec := axisSpec{headers: []string{"a", "b"}, cells: func(*manetp2p.Result) []string { return []string{"x", "y"} }}
	if got := formatRow("10m", manetp2p.Regular, res, spec); got != want+"\tx\ty" {
		t.Errorf("formatRow with extras = %q, want the row plus x and y", got)
	}
	if got := formatRow("10m", manetp2p.Regular, &manetp2p.Result{}, axisSpec{cells: routingCells}); !strings.HasSuffix(got, "\t-\t-") {
		t.Errorf("formatRow without routing telemetry = %q, want dashes", got)
	}
}
