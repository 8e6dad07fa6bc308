package main

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manetp2p"
	"manetp2p/cmd/internal/scenarioflag"
	"manetp2p/internal/stats"
)

// TestMain lets a test run the command itself: re-executed with
// SWEEP_TEST_MAIN set, the test binary is sweep on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSweep runs sweep with args and returns its stdout, stderr and exit
// code.
func runSweep(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// A checkpointed sweep is open-or-create per cell: run again on its own
// files, every cell loads its finished checkpoint, so the rows, the
// checkpoint files and the metrics streams come out byte-identical. A
// sweep with other flags (another -seed) meets checkpoints written for
// different scenarios: it is refused, exit 1, and leaves them and the
// metrics streams as they were.
func TestCheckpointedSweepReloadsItsCells(t *testing.T) {
	dir := t.TempDir()
	ckpt, metrics := filepath.Join(dir, "ckpt"), filepath.Join(dir, "metrics")
	args := []string{"-axis", "range", "-algs", "regular", "-nodes", "12", "-duration", "60", "-reps", "2", "-quiet",
		"-checkpoint", ckpt, "-metrics", metrics}
	var outs []string
	var ckpts, streams []map[string][]byte
	for run := 0; run < 2; run++ {
		stdout, stderr, code := runSweep(t, args...)
		if code != 0 {
			t.Fatalf("run %d: exit %d: %s", run, code, stderr)
		}
		outs = append(outs, stdout)
		ckpts = append(ckpts, readDir(t, ckpt))
		streams = append(streams, readDir(t, metrics))
	}
	cells := len(registry()["range"].points)
	if rows := strings.Count(outs[0], "\tRegular\t"); rows != cells || len(ckpts[0]) != cells || len(streams[0]) != cells {
		t.Fatalf("first run: %d rows, %d checkpoints, %d streams; want %d of each", rows, len(ckpts[0]), len(streams[0]), cells)
	}
	if outs[1] != outs[0] {
		t.Errorf("reloaded sweep printed\n%s\nthe first printed\n%s", outs[1], outs[0])
	}
	for name, data := range ckpts[0] {
		info, err := manetp2p.InspectCheckpoint(filepath.Join(ckpt, name))
		if err != nil || !info.Done || len(info.Completed) != 2 {
			t.Errorf("%s: %+v, %v; want a finished checkpoint of 2 replications", name, info, err)
		}
		if !bytes.Equal(ckpts[1][name], data) {
			t.Errorf("%s changed when the sweep reloaded it", name)
		}
	}
	for name, data := range streams[0] {
		if len(data) == 0 || !bytes.Equal(streams[1][name], data) {
			t.Errorf("%s: %d bytes, then %d differing bytes on reload", name, len(data), len(streams[1][name]))
		}
	}

	_, stderr, code := runSweep(t, append([]string{"-seed", "2"}, args...)...)
	if code != 1 || !strings.Contains(stderr, "different scenario") {
		t.Errorf("sweep with another -seed on the same checkpoints: exit %d, stderr %q; want exit 1, a different-scenario error", code, stderr)
	}
	for _, files := range []struct {
		dir  string
		want map[string][]byte
	}{{ckpt, ckpts[0]}, {metrics, streams[0]}} {
		for name, data := range readDir(t, files.dir) {
			if !bytes.Equal(data, files.want[name]) {
				t.Errorf("refused sweep modified %s", name)
			}
		}
	}
}

// A cell that Pool.Run refuses writes no metrics, so its stream file
// under -metrics keeps every byte it held, whatever refused it.
func TestRefusedCellsKeepTheirMetricsFiles(t *testing.T) {
	args := []string{"-axis", "range", "-algs", "regular", "-nodes", "12", "-duration", "60", "-reps", "2", "-quiet"}
	stale := func(dir, ext string, data []byte) string {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, pt := range registry()["range"].points {
			if err := os.WriteFile(cellFilePath(dir, "range", pt.label, manetp2p.Regular, ext), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	dir := t.TempDir()
	finished := filepath.Join(dir, "ckpt")
	if _, stderr, code := runSweep(t, append(args, "-checkpoint", finished)...); code != 0 {
		t.Fatalf("first run: exit %d: %s", code, stderr)
	}
	for _, tc := range []struct {
		name, refusal string
		ckpt          string
		extra         []string
	}{
		{"different scenario", "different scenario", finished, []string{"-seed", "2"}},
		{"not a checkpoint", "checkpoint", stale(filepath.Join(dir, "junk"), "ckpt", []byte("not a checkpoint\n")), nil},
	} {
		metrics := stale(filepath.Join(dir, "metrics-"+strings.ReplaceAll(tc.name, " ", "-")), "jsonl", []byte("an older stream\n"))
		want := readDir(t, metrics)
		_, stderr, code := runSweep(t, append(append(tc.extra, args...), "-checkpoint", tc.ckpt, "-metrics", metrics)...)
		if code != 1 || !strings.Contains(stderr, tc.refusal) {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 naming %q", tc.name, code, stderr, tc.refusal)
		}
		if got := readDir(t, metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the refused sweep changed its metrics files", tc.name)
		}
	}
}

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

// The faults axis pools time-to-reheal over the replications that
// re-healed: an event none re-healed pools to an empty Summary, whose
// zero Mean is no reheal time, and a regime in which nothing re-healed
// says so instead of printing 0.0 s. Each mean carries the 95 %
// half-width of the samples behind it, "n/a" below two.
func TestResilienceCellsSkipEventsThatNeverRehealed(t *testing.T) {
	ev := func(reheal, residual []float64) manetp2p.EventRecovery {
		return manetp2p.EventRecovery{RehealSeconds: stats.Summarize(reheal), ResidualDisconnect: stats.Summarize(residual)}
	}
	cases := []struct {
		name   string
		events []manetp2p.EventRecovery
		want   []string
	}{
		{"no faults", nil, []string{"-", "-", "-", "-"}},
		// Samples 10, 20, 30 (mean 20, s.d. 10): 4.303 × 10 / √3.
		{"one event", []manetp2p.EventRecovery{ev([]float64{10, 20, 30}, []float64{0, 0.1, 0.2})},
			[]string{"20.0", "24.8", "0.100", "0.248"}},
		// The union 10, 20, 30, 40 and 0, 0.1, 0.2 twice: its mean and
		// s.d., not the mean of the two events' means (25).
		{"two events pool their samples", []manetp2p.EventRecovery{ev([]float64{10, 20, 30}, []float64{0, 0.1, 0.2}), ev([]float64{40}, []float64{0, 0.1, 0.2})},
			[]string{"25.0", "20.5", "0.100", "0.094"}},
		{"one event never re-healed", []manetp2p.EventRecovery{ev([]float64{10, 30}, []float64{0, 0.2}), ev(nil, []float64{0.4, 0.6})},
			[]string{"20.0", "127.1", "0.300", "0.411"}},
		{"one sample has no interval", []manetp2p.EventRecovery{ev([]float64{12}, []float64{0.5})},
			[]string{"12.0", "n/a", "0.500", "n/a"}},
		{"none re-healed", []manetp2p.EventRecovery{ev(nil, []float64{0.4}), ev(nil, []float64{0.6})},
			[]string{"never", "n/a", "0.500", "1.271"}},
	}
	for _, c := range cases {
		res := &manetp2p.Result{Resilience: &manetp2p.Resilience{Events: c.events}}
		if got := resilienceCells(res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: resilienceCells = %q, want %q", c.name, got, c.want)
		}
	}
	if got := resilienceCells(&manetp2p.Result{}); !reflect.DeepEqual(got, []string{"-", "-", "-", "-"}) {
		t.Errorf("without resilience telemetry: resilienceCells = %q, want dashes", got)
	}
}

// pooled must summarise the union of the samples exactly as Summarize
// does, whatever the split.
func TestPooledMatchesSummarize(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	want := stats.Summarize(xs)
	for _, cuts := range [][]int{{0}, {1}, {4, 7}, {2, 3, 10}} {
		var parts []stats.Summary
		prev := 0
		for _, c := range append(cuts, len(xs)) {
			parts = append(parts, stats.Summarize(xs[prev:c]))
			prev = c
		}
		got := pooled(parts)
		if got.N != want.N || math.Abs(got.Mean-want.Mean) > 1e-12 || math.Abs(got.StdDev-want.StdDev) > 1e-12 {
			t.Errorf("cuts %v: pooled = %+v, want N %d mean %v s.d. %v", cuts, got, want.N, want.Mean, want.StdDev)
		}
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
