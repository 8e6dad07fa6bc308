package scenarioflag

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

// parseScenario runs the scenario flags over one command line.
func parseScenario(t *testing.T, args ...string) (manetp2p.Scenario, []string, error) {
	t.Helper()
	fs := flag.NewFlagSet("p2psim", flag.ContinueOnError)
	f := Register(fs, func(*manetp2p.Scenario) {})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sc, err := f.Scenario()
	var set []string
	if given := f.Refuse("given"); given != nil {
		set = strings.Split(strings.TrimPrefix(given.Error(), "given; drop -"), ", -")
	}
	return sc, set, err
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
