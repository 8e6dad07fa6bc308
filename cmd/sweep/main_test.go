package main

import (
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manetp2p"
	"manetp2p/cmd/internal/scenarioflag"
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

// The faults axis averages time-to-reheal only over the events that
// re-healed in some replication: an event none re-healed pools to an
// empty Summary, whose zero Mean is no reheal time, and a regime in
// which nothing re-healed says so instead of printing 0.0 s.
func TestResilienceCellsSkipEventsThatNeverRehealed(t *testing.T) {
	ev := func(n int, reheal, residual float64) manetp2p.EventRecovery {
		var e manetp2p.EventRecovery
		e.RehealSeconds.N, e.RehealSeconds.Mean = n, reheal
		e.ResidualDisconnect.N, e.ResidualDisconnect.Mean = 3, residual
		return e
	}
	cases := []struct {
		name   string
		events []manetp2p.EventRecovery
		want   []string
	}{
		{"no faults", nil, []string{"-", "-"}},
		{"all re-healed", []manetp2p.EventRecovery{ev(3, 10, 0.1), ev(1, 30, 0.3)}, []string{"20.0", "0.200"}},
		{"one never re-healed", []manetp2p.EventRecovery{ev(3, 10, 0.1), ev(0, 0, 0.5)}, []string{"10.0", "0.300"}},
		{"none re-healed", []manetp2p.EventRecovery{ev(0, 0, 0.4), ev(0, 0, 0.6)}, []string{"never", "0.500"}},
	}
	for _, c := range cases {
		res := &manetp2p.Result{Resilience: &manetp2p.Resilience{Events: c.events}}
		if got := resilienceCells(res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: resilienceCells = %q, want %q", c.name, got, c.want)
		}
	}
	if got := resilienceCells(&manetp2p.Result{}); !reflect.DeepEqual(got, []string{"-", "-"}) {
		t.Errorf("without resilience telemetry: resilienceCells = %q, want dashes", got)
	}
}

// parseFlags runs sweep's scenario flags over one command line.
func parseFlags(t *testing.T, args ...string) *scenarioflag.Flags {
	t.Helper()
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	sf := scenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf
}

// Every cell starts from the scenario flags' base: a -config file plus
// any override, or DefaultScenario(-nodes, alg) at 5 replications. -algs
// sets each cell's algorithm, so -alg is refused by name.
func TestGridCellsFromTheScenarioFlags(t *testing.T) {
	file := manetp2p.DefaultScenario(20, manetp2p.Regular)
	file.Name = "base"
	file.Duration = manetp2p.Seconds(90)
	path := filepath.Join(t.TempDir(), "base.json")
	if err := manetp2p.SaveScenario(path, file); err != nil {
		t.Fatal(err)
	}
	spec := registry()["range"]
	algs := []manetp2p.Algorithm{manetp2p.Basic, manetp2p.Hybrid}

	base, cells, err := gridCells(parseFlags(t, "-config", path, "-reps", "2"), spec, algs)
	if err != nil || base.Replications != 2 || len(cells) != len(spec.points)*len(algs) {
		t.Fatalf("-config -reps 2: base %+v, %d cells, %v", base, len(cells), err)
	}
	for i, c := range cells {
		want := file
		want.Replications, want.Algorithm = 2, algs[i%len(algs)]
		spec.points[i/len(algs)].mod(&want)
		if c.label != spec.points[i/len(algs)].label || !reflect.DeepEqual(c.sc, want) {
			t.Errorf("cell %d %s = %+v\nwant %+v", i, c.label, c.sc, want)
		}
	}

	_, cells, err = gridCells(parseFlags(t, "-nodes", "24", "-seed", "7"), spec, algs)
	want := manetp2p.DefaultScenario(24, manetp2p.Hybrid)
	want.Replications, want.Seed = 5, 7
	spec.points[0].mod(&want)
	if err != nil || !reflect.DeepEqual(cells[1].sc, want) {
		t.Errorf("flag-only cell = %+v, %v\nwant %+v", cells[1].sc, err, want)
	}

	_, _, err = gridCells(parseFlags(t, "-alg", "basic", "-reps", "2"), spec, algs)
	if err == nil || !strings.Contains(err.Error(), "drop -alg") || strings.Contains(err.Error(), "-reps") {
		t.Errorf("-alg beside -algs: err = %v, want a refusal naming -alg alone", err)
	}
}
