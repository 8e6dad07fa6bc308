package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manetp2p"
	"manetp2p/cmd/internal/scenarioflag"
)

// TestMain lets a test run the command itself: re-executed with
// REPRO_TEST_MAIN set, the test binary is repro on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An invalid scenario or experiment list is refused before the profile
// files are opened: each keeps the bytes it held.
func TestRefusedRunKeepsItsProfileFiles(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{}
	var profiles []string
	for _, flag := range []string{"cpuprofile", "memprofile", "exectrace"} {
		path := filepath.Join(dir, flag)
		files[path] = "an older " + flag + "\n"
		if err := os.WriteFile(path, []byte(files[path]), 0o644); err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, "-"+flag, path)
	}
	for _, tc := range []struct {
		refusal string
		args    []string
	}{
		{"Duration", []string{"-duration", "0"}},
		{"fig13", []string{"-exp", "fig13"}},
	} {
		cmd := exec.Command(os.Args[0], append(tc.args, profiles...)...)
		cmd.Env = append(os.Environ(), "REPRO_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), tc.refusal) {
			t.Errorf("%v: err %v, stderr %q; want exit 2 naming %q", tc.args, err, stderr.String(), tc.refusal)
		}
		for path, want := range files {
			if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Errorf("%v: the refused run left %q in %s (err %v), want %q", tc.args, got, filepath.Base(path), err, want)
			}
		}
	}
}

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
