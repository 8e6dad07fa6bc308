package main

import (
	"os"
	"path/filepath"
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
