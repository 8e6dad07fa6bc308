package main

import (
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manetp2p"
)

// snapshotFor runs topoviz's scenario flags over one command line.
func snapshotFor(t *testing.T, args ...string) (manetp2p.Scenario, error) {
	t.Helper()
	fs := flag.NewFlagSet("topoviz", flag.ContinueOnError)
	sf := scenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf.Scenario()
}

// The snapshot's scenario is the scenario flags' base — a -config file
// plus any override, or the paper's setup with device classes — and
// -reps is refused by name.
func TestSnapshotScenarioFromTheScenarioFlags(t *testing.T) {
	file := manetp2p.DefaultScenario(20, manetp2p.Regular)
	file.Name = "base"
	path := filepath.Join(t.TempDir(), "base.json")
	if err := manetp2p.SaveScenario(path, file); err != nil {
		t.Fatal(err)
	}
	sc, err := snapshotFor(t, "-config", path, "-alg", "hybrid", "-classes")
	want := file
	want.Algorithm, want.Quals = manetp2p.Hybrid, manetp2p.DeviceClasses()
	if err != nil || !reflect.DeepEqual(sc, want) {
		t.Errorf("-config -alg hybrid -classes = %+v, %v\nwant %+v", sc, err, want)
	}

	sc, err = snapshotFor(t, "-nodes", "30", "-seed", "7")
	want = manetp2p.DefaultScenario(30, manetp2p.Regular)
	want.Seed, want.Quals = 7, manetp2p.DeviceClasses()
	if err != nil || !reflect.DeepEqual(sc, want) {
		t.Errorf("-nodes 30 -seed 7 = %+v, %v\nwant %+v", sc, err, want)
	}
	if sc, err = snapshotFor(t, "-classes=false"); err != nil || len(sc.Quals.Classes) != 0 {
		t.Errorf("-classes=false = %+v, %v; want uniform qualifiers", sc.Quals, err)
	}

	if _, err := snapshotFor(t, "-reps", "3", "-seed", "2"); err == nil || !strings.Contains(err.Error(), "drop -reps") || strings.Contains(err.Error(), "-seed") {
		t.Errorf("-reps: err = %v, want a refusal naming -reps alone", err)
	}
}
