package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"manetp2p"
)

// TestMain lets a test run the command itself: re-executed with
// P2PSIM_TEST_MAIN set, the test binary is p2psim on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("P2PSIM_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runP2psim runs p2psim with args in a fresh directory and returns its
// stdout, stderr and exit code.
func runP2psim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "P2PSIM_TEST_MAIN=1")
	cmd.Dir = t.TempDir()
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

// -trace runs one replication and writes only its events. A flag asking
// for more output (-metrics, -checkpoint, -curves, -series) would go
// unserved, and one choosing another run mode (-selfcheck, -resume,
// -save-config) would skip the trace: each is refused by name, exit 2.
func TestTraceRefusesWhatItWouldIgnore(t *testing.T) {
	small := []string{"-nodes", "10", "-duration", "60", "-reps", "1"}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"metrics", append([]string{"-metrics", "m.jsonl"}, small...)},
		{"checkpoint", append([]string{"-checkpoint", "r.ckpt"}, small...)},
		{"curves", append([]string{"-curves"}, small...)},
		{"series", append([]string{"-series", "connect"}, small...)},
		{"selfcheck", append([]string{"-selfcheck"}, small...)},
		{"save-config", append([]string{"-save-config", "s.json"}, small...)},
		{"resume", []string{"-resume", "r.ckpt"}},
	} {
		_, stderr, code := runP2psim(t, append([]string{"-trace", "t.jsonl"}, tc.args...)...)
		if code != 2 || !strings.Contains(stderr, "-trace") || !strings.Contains(stderr, "-"+tc.flag) {
			t.Errorf("-trace beside -%s: exit %d, stderr %q; want exit 2 naming -trace and -%s", tc.flag, code, stderr, tc.flag)
		}
	}
}

// finishedCheckpoint runs a small scenario with -checkpoint and returns
// the file's path and the report the run printed.
func finishedCheckpoint(t *testing.T) (path, report string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "r.ckpt")
	report, stderr, code := runP2psim(t, "-nodes", "12", "-area", "50", "-range", "15", "-duration", "60", "-reps", "2", "-checkpoint", path)
	if code != 0 || !strings.Contains(report, "Regular") {
		t.Fatalf("-checkpoint run: exit %d, stdout %q, stderr %q", code, report, stderr)
	}
	return path, report
}

// -resume continues the run its checkpoint holds and does nothing else.
// A flag that names another checkpoint (-checkpoint) or another run
// mode (-save-config, -selfcheck) would go unserved: each is refused by
// name, exit 2, and nothing is written or run.
func TestResumeRefusesWhatItWouldIgnore(t *testing.T) {
	resumed, _ := finishedCheckpoint(t)
	dir := t.TempDir()
	other, saved := filepath.Join(dir, "other.ckpt"), filepath.Join(dir, "s.json")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"checkpoint", []string{"-checkpoint", other}},
		{"save-config", []string{"-save-config", saved}},
		{"selfcheck", []string{"-selfcheck"}},
	} {
		stdout, stderr, code := runP2psim(t, append([]string{"-resume", resumed}, tc.args...)...)
		if code != 2 || !strings.Contains(stderr, "-resume") || !strings.Contains(stderr, "-"+tc.flag) {
			t.Errorf("-resume beside -%s: exit %d, stderr %q; want exit 2 naming -resume and -%s", tc.flag, code, stderr, tc.flag)
		}
		if stdout != "" {
			t.Errorf("-resume beside -%s printed %q", tc.flag, stdout)
		}
	}
	for _, path := range []string{other, saved} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("refused -resume wrote %s (stat err %v)", path, err)
		}
	}
}

// -resume of a finished checkpoint loads every replication and prints
// exactly the report the -checkpoint run that wrote it printed.
func TestResumePrintsTheCheckpointedReport(t *testing.T) {
	path, want := finishedCheckpoint(t)
	got, stderr, code := runP2psim(t, "-resume", path)
	if code != 0 {
		t.Fatalf("-resume: exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "2/2 replications complete") {
		t.Errorf("-resume stderr %q, want the finished file's progress", stderr)
	}
	if got != want {
		t.Errorf("-resume printed\n%s\nthe -checkpoint run printed\n%s", got, want)
	}
}

// A run that Pool.Run refuses writes no metrics, so the -metrics file it
// was given keeps every byte it held: the stream a finished run wrote
// beside its checkpoint, or any other file.
func TestRefusedRunKeepsItsMetricsFile(t *testing.T) {
	dir := t.TempDir()
	ckpt, stream := filepath.Join(dir, "r.ckpt"), filepath.Join(dir, "m.jsonl")
	small := []string{"-nodes", "12", "-area", "50", "-range", "15", "-duration", "60", "-reps", "2"}
	if _, stderr, code := runP2psim(t, append(small, "-checkpoint", ckpt, "-metrics", stream)...); code != 0 {
		t.Fatalf("first run: exit %d: %s", code, stderr)
	}
	junk, other := filepath.Join(dir, "junk.ckpt"), filepath.Join(dir, "other.jsonl")
	for path, data := range map[string]string{junk: "not a checkpoint\n", other: "an older stream\n"} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, refusal string
		args          []string
		metrics       string
	}{
		{"different scenario", "different scenario", append([]string{"-seed", "2", "-checkpoint", ckpt}, small...), stream},
		{"not a checkpoint", junk, append([]string{"-checkpoint", junk}, small...), other},
	} {
		want, err := os.ReadFile(tc.metrics)
		if err != nil {
			t.Fatal(err)
		}
		_, stderr, code := runP2psim(t, append(tc.args, "-metrics", tc.metrics)...)
		if code != 1 || !strings.Contains(stderr, tc.refusal) {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 naming %q", tc.name, code, stderr, tc.refusal)
		}
		if got, err := os.ReadFile(tc.metrics); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the refused run left %d bytes in %s (err %v), want the %d it held", tc.name, len(got), tc.metrics, err, len(want))
		}
	}
}

// An invalid scenario is refused before any output file is opened, and
// a run Pool.Run refuses (a checkpoint of another scenario) exits before
// the profiles are written: -trace, -save-config and the profile files
// keep the bytes they held.
func TestRefusedRunKeepsItsOutputFiles(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "r.ckpt")
	small := []string{"-nodes", "12", "-area", "50", "-range", "15", "-duration", "60", "-reps", "2"}
	if _, stderr, code := runP2psim(t, append(small, "-checkpoint", ckpt)...); code != 0 {
		t.Fatalf("first run: exit %d: %s", code, stderr)
	}
	out := func(name string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("an older "+name+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name, refusal string
		code          int
		args          []string
	}{
		{"trace", "NumNodes", 2, []string{"-nodes", "0", "-trace", out("t.jsonl")}},
		{"save-config", "NumNodes", 2, []string{"-nodes", "0", "-save-config", out("s.json")}},
		{"profiles", "NumNodes", 2, []string{"-nodes", "0", "-cpuprofile", out("c.prof"), "-memprofile", out("m.prof"), "-exectrace", out("e.out")}},
		{"profiles, different scenario", "different scenario", 1,
			append([]string{"-seed", "2", "-checkpoint", ckpt, "-cpuprofile", out("c.prof"), "-memprofile", out("m.prof"), "-exectrace", out("e.out")}, small...)},
	} {
		_, stderr, code := runP2psim(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.refusal) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d naming %q", tc.name, code, stderr, tc.code, tc.refusal)
		}
		for i, arg := range tc.args {
			if !strings.HasPrefix(arg, dir) || arg == ckpt {
				continue
			}
			want := "an older " + filepath.Base(arg) + "\n"
			if got, err := os.ReadFile(arg); err != nil || string(got) != want {
				t.Errorf("%s: the refused run left %q in its %s file (err %v), want %q", tc.name, got, tc.args[i-1], err, want)
			}
		}
	}
}

// A refused run leaves its -checkpoint file byte-identical: one refused
// at validation, before the file is opened, and one whose file holds
// another scenario's replications, which Pool.Run refuses.
func TestRefusedRunKeepsItsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "r.ckpt")
	small := []string{"-nodes", "12", "-area", "50", "-range", "15", "-duration", "60", "-reps", "2"}
	if _, stderr, code := runP2psim(t, append(small, "-checkpoint", ckpt)...); code != 0 {
		t.Fatalf("first run: exit %d: %s", code, stderr)
	}
	want, err := os.ReadFile(ckpt)
	if err != nil || len(want) == 0 {
		t.Fatalf("first run left %d checkpoint bytes (err %v)", len(want), err)
	}
	for _, tc := range []struct {
		name, refusal string
		code          int
		args          []string
	}{
		{"invalid scenario", "NumNodes", 2, append(append([]string{}, small...), "-nodes", "0", "-checkpoint", ckpt)},
		{"different scenario", "different scenario", 1, append([]string{"-seed", "2", "-checkpoint", ckpt}, small...)},
	} {
		_, stderr, code := runP2psim(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.refusal) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d naming %q", tc.name, code, stderr, tc.code, tc.refusal)
		}
		if got, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the refused run left %d bytes in the checkpoint (err %v), want the %d it held", tc.name, len(got), err, len(want))
		}
	}
}

// -trace - streams the events to stdout, one JSON object per line.
func TestTraceWritesEventLines(t *testing.T) {
	stdout, stderr, code := runP2psim(t, "-trace", "-", "-nodes", "10", "-area", "40", "-range", "15", "-duration", "120")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	for _, line := range lines {
		var e struct{ What string }
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.What == "" {
			t.Fatalf("line %q is not a trace event: %v", line, err)
		}
	}
	if len(lines) < 10 {
		t.Errorf("%d trace lines from a 10-node, 120 s run", len(lines))
	}
}

// captureStdout runs fn with os.Stdout pointed at a file and returns
// what fn wrote there.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	fn()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// -metrics - streams to stdout and the report is printed there
// afterwards, so closing the sink must leave os.Stdout open.
func TestMetricsSinkLeavesStdoutOpen(t *testing.T) {
	got := captureStdout(t, func() {
		sink, closeSink := openMetricsSink("-")
		sink.Emit(manetp2p.MetricsPoint{Section: "radio", Name: "rx-frames", Value: 1})
		closeSink()
		if _, err := os.Stdout.WriteString("summary\n"); err != nil {
			t.Fatalf("stdout unusable after the metrics sink closed: %v", err)
		}
	})
	want := `{"rep":0,"t":0,"section":"radio","name":"rx-frames","value":1}` + "\nsummary\n"
	if got != want {
		t.Errorf("stdout holds %q, want %q", got, want)
	}
}

// The traffic table follows the data, not the -traffic flag: a scenario
// loaded with -config or -resume that has TrafficBucket set prints it,
// and a Result without the series prints no orphan header.
func TestReportPrintsTrafficIffCollected(t *testing.T) {
	for _, bucket := range []manetp2p.Duration{0, manetp2p.Seconds(30)} {
		sc := manetp2p.DefaultScenario(10, manetp2p.Regular)
		sc.Duration = manetp2p.Seconds(90)
		sc.Replications = 1
		sc.TrafficBucket = bucket
		res, err := manetp2p.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		got := captureStdout(t, func() { printReport(res, false, nil) })
		header := strings.Contains(got, "# connect and query messages received per member per bucket")
		rows := strings.Contains(got, "\n0\t") // the first bucket
		if want := bucket > 0; header != want || rows != want {
			t.Errorf("TrafficBucket %v: header printed %v, rows printed %v, want both %v", bucket, header, rows, want)
		}
	}
}

func TestParseSeries(t *testing.T) {
	for name, want := range map[string]manetp2p.SeriesKind{
		"connect": manetp2p.SeriesConnect, "Ping": manetp2p.SeriesPing, "QUERY": manetp2p.SeriesQuery,
	} {
		if got, err := parseSeries(name); err != nil || got == nil || *got != want {
			t.Errorf("parseSeries(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if got, err := parseSeries(""); got != nil || err != nil {
		t.Errorf(`parseSeries("") = %v, %v; want no series, no error`, got, err)
	}
	if _, err := parseSeries("conect"); err == nil {
		t.Error(`parseSeries("conect") accepted`)
	}
}
