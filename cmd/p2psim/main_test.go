package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manetp2p"
)

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

// parseScenario runs the scenario flags over one command line.
func parseScenario(t *testing.T, args ...string) (manetp2p.Scenario, []string, error) {
	t.Helper()
	fs := flag.NewFlagSet("p2psim", flag.ContinueOnError)
	set, resolve := scenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sc, err := resolve()
	return sc, set(), err
}

// The base scenario is the -config file or DefaultScenario; every
// scenario flag on the command line overrides it and no other does. With
// no flag beside -config the file comes back byte for byte.
func TestScenarioFlagsOverrideTheBase(t *testing.T) {
	file := manetp2p.DefaultScenario(20, manetp2p.Regular)
	file.Name = "base"
	file.Duration = manetp2p.Seconds(90)
	file.Replications = 2
	file.TrafficBucket = manetp2p.Seconds(30)
	file.Params.PeerCache.Enabled = true
	path := filepath.Join(t.TempDir(), "base.json")
	if err := manetp2p.SaveScenario(path, file); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	sc, set, err := parseScenario(t, "-config", path)
	if err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(t.TempDir(), "saved.json")
	if err := manetp2p.SaveScenario(saved, sc); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(saved); !bytes.Equal(got, want) {
		t.Errorf("-config alone changed the scenario:\n%s\nwant\n%s", got, want)
	}
	if !reflect.DeepEqual(set, []string{"config"}) {
		t.Errorf("set = %v, want [config]", set)
	}

	sc, set, err = parseScenario(t, "-config", path, "-nodes", "40", "-alg", "hybrid", "-routing", "DSR", "-peercache=false")
	if err != nil {
		t.Fatal(err)
	}
	over := file
	over.NumNodes, over.Algorithm, over.Routing = 40, manetp2p.Hybrid, manetp2p.RoutingDSR
	over.Params.PeerCache.Enabled = false
	if !reflect.DeepEqual(sc, over) {
		t.Errorf("overridden scenario = %+v\nwant %+v", sc, over)
	}
	if want := []string{"alg", "config", "nodes", "peercache", "routing"}; !reflect.DeepEqual(set, want) {
		t.Errorf("set = %v, want %v", set, want)
	}

	// Without -config the base is DefaultScenario(-nodes, -alg).
	sc, _, err = parseScenario(t, "-nodes", "24", "-alg", "random", "-area", "50", "-classes")
	def := manetp2p.DefaultScenario(24, manetp2p.Random)
	def.AreaSide, def.Quals = 50, manetp2p.DeviceClasses()
	if err != nil || !reflect.DeepEqual(sc, def) {
		t.Errorf("flag-only scenario = %+v, %v\nwant %+v", sc, err, def)
	}
	if sc, set, err = parseScenario(t); err != nil || len(set) != 0 || !reflect.DeepEqual(sc, manetp2p.DefaultScenario(50, manetp2p.Regular)) {
		t.Errorf("no flags = %+v, %v, %v; want the paper's default scenario", sc, set, err)
	}

	for _, args := range [][]string{{"-routing", "olsr"}, {"-alg", "chord"}, {"-config", path, "-alg", "chord"}, {"-faults", filepath.Join(t.TempDir(), "absent.json")}} {
		if _, _, err := parseScenario(t, args...); err == nil {
			t.Errorf("%v accepted", args)
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
