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

func TestParseExperiments(t *testing.T) {
	for _, name := range order {
		if _, ok := experiments[name]; !ok {
			t.Errorf("order lists %q, which is not an experiment", name)
		}
	}
	if len(order) != len(experiments) {
		t.Errorf("order has %d names for %d experiments: \"all\" would skip some", len(order), len(experiments))
	}
	for list, want := range map[string][]string{
		"all":                 order,
		"fig7":                {"fig7"},
		"fig5, FIG7 ,table2":  {"fig5", "fig7", "table2"},
		"table1,table1,fig12": {"table1", "table1", "fig12"},
	} {
		if got, err := parseExperiments(list); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseExperiments(%q) = %v, %v; want %v", list, got, err, want)
		}
	}
	for _, list := range []string{"fig13", "fig5,,fig7", "", "all,fig5"} {
		if got, err := parseExperiments(list); err == nil || !strings.Contains(err.Error(), "fig12") {
			t.Errorf("parseExperiments(%q) = %v, %v; want an error listing the valid names", list, got, err)
		}
	}
}

// parseFlags runs repro's scenario flags over one command line.
func parseFlags(t *testing.T, args ...string) *scenarioflag.Flags {
	t.Helper()
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	sf := scenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf
}

// Every run starts from the scenario flags' base, with the figure's node
// count and algorithm fixed on it: a -config file plus an override
// reaches the run, and -nodes and -alg are refused by name.
func TestRunsStartFromTheScenarioFlags(t *testing.T) {
	file := manetp2p.DefaultScenario(20, manetp2p.Regular)
	file.Name = "base"
	file.Duration = manetp2p.Seconds(90)
	path := filepath.Join(t.TempDir(), "base.json")
	if err := manetp2p.SaveScenario(path, file); err != nil {
		t.Fatal(err)
	}

	sf := parseFlags(t, "-config", path, "-routing", "dsr")
	sc, err := sf.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sf.Fix(&sc, 150, manetp2p.Basic)
	want := file
	want.Routing, want.NumNodes, want.Algorithm = manetp2p.RoutingDSR, 150, manetp2p.Basic
	if !reflect.DeepEqual(sc, want) {
		t.Errorf("-config -routing dsr, Fix(150, Basic) = %+v\nwant %+v", sc, want)
	}

	sf = parseFlags(t, "-seed", "7")
	if sc, err = sf.Scenario(); err != nil {
		t.Fatal(err)
	}
	sf.Fix(&sc, 150, manetp2p.Hybrid)
	want = manetp2p.DefaultScenario(150, manetp2p.Hybrid)
	want.Seed = 7
	if !reflect.DeepEqual(sc, want) {
		t.Errorf("-seed 7, Fix(150, Hybrid) = %+v\nwant %+v", sc, want)
	}

	for _, args := range [][]string{{"-nodes", "20"}, {"-alg", "basic"}, {"-seed", "2", "-nodes", "20", "-alg", "basic"}} {
		_, err := parseFlags(t, args...).Scenario()
		if err == nil || !strings.Contains(err.Error(), args[len(args)-2]) || strings.Contains(err.Error(), "-seed") {
			t.Errorf("%v: err = %v, want a refusal naming %s", args, err, args[len(args)-2])
		}
	}
}
