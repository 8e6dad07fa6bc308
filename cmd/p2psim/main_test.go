package main

import (
	"os"
	"path/filepath"
	"testing"

	"manetp2p"
)

// -metrics - streams to stdout and the report is printed there
// afterwards, so closing the sink must leave os.Stdout open.
func TestMetricsSinkLeavesStdoutOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()

	sink, closeSink := openMetricsSink("-")
	sink.Emit(manetp2p.MetricsPoint{Section: "radio", Name: "rx-frames", Value: 1})
	closeSink()
	if _, err := os.Stdout.WriteString("summary\n"); err != nil {
		t.Fatalf("stdout unusable after the metrics sink closed: %v", err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"rep":0,"t":0,"section":"radio","name":"rx-frames","value":1}` + "\nsummary\n"
	if string(got) != want {
		t.Errorf("stdout holds %q, want %q", got, want)
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
