package manetp2p

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manetp2p/internal/sim"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := DefaultScenario(150, Hybrid)
	sc.Seed = 42
	sc.Quals = DeviceClasses()
	sc.Routing = RoutingDSR
	sc.Churn = ChurnConfig{MeanUptime: 600 * sim.Second, MeanDowntime: 60 * sim.Second}
	data, err := MarshalJSONScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalJSONScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes != 150 || got.Algorithm != Hybrid || got.Seed != 42 {
		t.Errorf("round trip lost scalars: %+v", got)
	}
	if got.Routing != RoutingDSR {
		t.Errorf("Routing = %v, want DSR", got.Routing)
	}
	if got.Churn.MeanUptime != 600*sim.Second {
		t.Errorf("Churn lost: %+v", got.Churn)
	}
	if len(got.Quals.Classes) != 3 {
		t.Errorf("qualifier classes lost: %+v", got.Quals)
	}
}

func TestScenarioJSONFaultsRoundTrip(t *testing.T) {
	sc := DefaultScenario(50, Regular)
	sc.Faults = FaultPlan{Events: []FaultEvent{
		PartitionFault(600*sim.Second, 60*sim.Second, AxisY, 50),
		JamFault(900*sim.Second, 120*sim.Second, 25, 75, 20, 0.9),
		LossBurstFault(1200*sim.Second, 30*sim.Second, 0.5),
		CrashGroupFault(1500*sim.Second, 300*sim.Second, 10),
		LinkFlapFault(1800*sim.Second, 240*sim.Second, 20*sim.Second, 5*sim.Second),
	}}
	sc.HealthEvery = 5 * sim.Second
	data, err := MarshalJSONScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalJSONScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Faults, sc.Faults) {
		t.Errorf("fault plan changed in round trip:\n got %+v\nwant %+v", got.Faults, sc.Faults)
	}
	if got.HealthEvery != 5*sim.Second {
		t.Errorf("HealthEvery = %v, want 5s", got.HealthEvery)
	}
	// Every event type survives with its kind-specific fields.
	evs := got.Faults.Events
	if evs[0].Kind != FaultPartition || evs[0].Axis != AxisY || evs[0].Pos != 50 {
		t.Errorf("partition fields lost: %+v", evs[0])
	}
	if evs[1].Kind != FaultJam || evs[1].Radius != 20 || evs[1].Loss != 0.9 ||
		evs[1].Center.X != 25 || evs[1].Center.Y != 75 {
		t.Errorf("jam fields lost: %+v", evs[1])
	}
	if evs[2].Kind != FaultLossBurst || evs[2].Loss != 0.5 {
		t.Errorf("lossburst fields lost: %+v", evs[2])
	}
	if evs[3].Kind != FaultCrashGroup || evs[3].Count != 10 {
		t.Errorf("crashgroup fields lost: %+v", evs[3])
	}
	if evs[4].Kind != FaultLinkFlap || evs[4].Period != 20*sim.Second || evs[4].DownFor != 5*sim.Second {
		t.Errorf("linkflap fields lost: %+v", evs[4])
	}
}

func TestScenarioJSONRejectsUnknownFaultType(t *testing.T) {
	_, err := UnmarshalJSONScenario([]byte(
		`{"Faults": {"events": [{"type": "meteor", "at": 1, "duration": 1}]}}`))
	if err == nil {
		t.Fatal("unknown fault event type accepted")
	}
	msg := err.Error()
	for _, want := range []string{"meteor", "partition", "jam", "lossburst", "crashgroup", "linkflap"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func TestScenarioJSONRejectsInvalidFaultPlan(t *testing.T) {
	// Well-formed JSON, semantically invalid plan: duration missing.
	_, err := UnmarshalJSONScenario([]byte(
		`{"Faults": {"events": [{"type": "partition", "at": 10}]}}`))
	if err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

func TestScenarioJSONWorkloadRoundTrip(t *testing.T) {
	sc := DefaultScenario(50, Regular)
	sc.Workload = &WorkloadPlan{
		Arrival:    WorkloadArrival{Process: ArrivalDiurnal, Rate: 0.05, Period: 1200 * sim.Second, Amplitude: 0.6},
		Popularity: WorkloadPopularity{Skew: 1.3, DriftPerHour: -0.2, RotateEvery: 300 * sim.Second, RotateStep: 2},
		Sessions:   DefaultWorkloadSessions(),
		Phases: []WorkloadPhase{
			{Name: "steady"},
			{Name: "flash", Start: 900 * sim.Second, RateScale: 4, HotFiles: 2, HotBoost: 0.9},
		},
	}
	data, err := MarshalJSONScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalJSONScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload == nil {
		t.Fatal("workload plan dropped in round trip")
	}
	if !reflect.DeepEqual(got.Workload, sc.Workload) {
		t.Errorf("workload plan changed in round trip:\n got %+v\nwant %+v", got.Workload, sc.Workload)
	}
}

func TestScenarioJSONAbsentWorkloadStaysNil(t *testing.T) {
	got, err := UnmarshalJSONScenario([]byte(`{"NumNodes": 40}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != nil {
		t.Fatalf("absent workload decoded as %+v, want nil (built-in demand model)", got.Workload)
	}
	data, err := MarshalJSONScenario(got)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "Workload") {
		t.Error("nil workload plan serialized instead of being omitted")
	}
}

func TestScenarioJSONRejectsUnknownWorkloadProcess(t *testing.T) {
	_, err := UnmarshalJSONScenario([]byte(
		`{"Workload": {"arrival": {"process": "pareto"}}}`))
	if err == nil {
		t.Fatal("unknown arrival process accepted")
	}
	msg := err.Error()
	for _, want := range []string{"pareto", "uniform", "poisson", "onoff", "diurnal"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func TestScenarioJSONRejectsInvalidWorkload(t *testing.T) {
	// Well-formed JSON, semantically invalid plan: poisson with no rate.
	_, err := UnmarshalJSONScenario([]byte(
		`{"Workload": {"arrival": {"process": "poisson"}}}`))
	if err == nil {
		t.Fatal("invalid workload plan accepted")
	}
}

func TestScenarioJSONRejectsUnknownField(t *testing.T) {
	_, err := UnmarshalJSONScenario([]byte(`{"NumNodes": 40, "NumNodez": 50}`))
	if err == nil {
		t.Fatal("misspelled scenario field silently ignored")
	}
	if !strings.Contains(err.Error(), "NumNodez") {
		t.Errorf("error %q does not name the unknown field", err)
	}
}

func TestSaveAndLoadWorkloadPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	plan := &WorkloadPlan{
		Arrival:  WorkloadArrival{Process: ArrivalPoisson, Rate: 0.1},
		Sessions: DefaultWorkloadSessions(),
	}
	if err := SaveWorkloadPlan(path, plan); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWorkloadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plan) {
		t.Errorf("plan changed in save/load:\n got %+v\nwant %+v", got, plan)
	}
	if _, err := LoadWorkloadPlan(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing plan file accepted")
	}
}

func TestScenarioJSONPartialFillsDefaults(t *testing.T) {
	got, err := UnmarshalJSONScenario([]byte(`{"NumNodes": 80, "Replications": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes != 80 || got.Replications != 7 {
		t.Errorf("explicit fields lost: %+v", got)
	}
	if got.Range != 10 || got.Params.MaxNConn != 3 {
		t.Errorf("defaults not filled: Range=%v MaxNConn=%d", got.Range, got.Params.MaxNConn)
	}
}

func TestScenarioJSONRejectsInvalid(t *testing.T) {
	if _, err := UnmarshalJSONScenario([]byte(`{"NumNodes": -3}`)); err == nil {
		t.Error("invalid scenario accepted")
	}
	if _, err := UnmarshalJSONScenario([]byte(`{not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestSaveAndLoadScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	sc := DefaultScenario(30, Random)
	sc.Seed = 9
	if err := SaveScenario(path, sc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"Seed\": 9") {
		t.Errorf("file content unexpected:\n%s", data)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes != 30 || got.Algorithm != Random || got.Seed != 9 {
		t.Errorf("loaded scenario = %+v", got)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadedScenarioRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	sc := quickScenario(Regular, 12)
	sc.Duration = 120 * sim.Second
	sc.Replications = 1
	if err := SaveScenario(path, sc); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(loaded); err != nil {
		t.Fatal(err)
	}
}

// badScenarioFiles are scenario files that used to be accepted and then
// panicked (MaxPause), ran something other than what they said (Routing,
// Mobility, Quals.Kind, QueryMode), ran nothing (Algorithm), failed
// only once a replication was built (LossProb) or never finished (the
// sampling periods), each with the field its error must name.
var badScenarioFiles = []struct{ field, doc string }{
	{"MaxPause", `{"MaxPause": -5}`},
	{"Routing", `{"Routing": 7}`},
	{"Algorithm", `{"Algorithm": 9}`},
	{"Mobility", `{"Mobility": 9}`},
	{"Quals.Kind", `{"Quals": {"Kind": 5}}`},
	{"QueryMode", `{"Params": {"QueryMode": 4}}`},
	{"LossProb", `{"LossProb": 1.5}`},
	{"Energy", `{"Energy": {"Capacity": -1}}`},
	{"Quals.Classes[0].Weight", `{"Quals": {"Kind": 1, "Classes": [{"Value": 1, "Weight": -1}]}}`},
	// Found probing by hand past the fuzz smoke: each panicked in Build or
	// the first events (makeslice, Int63n, schedule-before-now) or allocated
	// without bound.
	{"AreaSide", `{"AreaSide": 1e9, "Range": 1e-9}`},
	{"MaxPause", `{"MaxPause": 9223372036854775807}`},
	{"timing constant", `{"Params": {"JoinStaggerMax": 9223372036854775807}}`},
	{"timing constant", `{"Params": {"PingInterval": 9223372036854775807}}`},
	{"NumFiles", `{"Files": {"NumFiles": 100000000}}`},
	{"NumNodes", `{"NumNodes": 1000000000}`},
	// A subnormal MaxSpeed left the speed band empty and panicked in
	// mobility; a vast arena made every leg wrap the clock.
	{"MaxSpeed", `{"MaxSpeed": 5e-324}`},
	{"AreaSide", `{"AreaSide": 1e300, "Range": 1e298}`},
	// A stall timeout that wraps the clock once a download starts.
	{"timing constant", `{"Params": {"Download": {"Enabled": true, "ChunkWait": 9223372036854775807}}}`},
	// A 1 µs sampling period over the default hour: 3.6e9 samples.
	{"SnapshotEvery", `{"SnapshotEvery": 1}`},
	{"HealthEvery", `{"HealthEvery": 1}`},
	{"TrafficBucket", `{"TrafficBucket": 1}`},
	{"Invariants.Every", `{"Invariants": {"Enabled": true, "Every": 1}}`},
	// The trace is a writer WriteTrace is given, not a scenario field:
	// a file saved when it was one is refused, naming the field.
	{"TraceCapacity", `{"TraceCapacity": 0}`},
	// Stationary repeated Mobility: MobilityStationary and silently
	// overrode Mobility; a file that still names it is refused.
	{"Stationary", `{"Stationary": false}`},
}

func TestScenarioJSONRejectsOutOfRange(t *testing.T) {
	for _, bad := range badScenarioFiles {
		_, err := UnmarshalJSONScenario([]byte(bad.doc))
		if err == nil || !strings.Contains(err.Error(), bad.field) {
			t.Errorf("%s: err = %v, want an error naming %s", bad.doc, err, bad.field)
		}
	}
}

// FuzzUnmarshalScenario: whatever the bytes, UnmarshalJSONScenario
// returns an error or a scenario that passes Validate, survives its own
// encoding and runs — never a panic, and decode → encode → decode is a
// fixpoint. Seeded from the scenarios the golden fixtures embed (what the
// benchmark and -resume decode) and one carrying both hand-authored
// plans.
func FuzzUnmarshalScenario(f *testing.F) {
	for _, bad := range badScenarioFiles {
		f.Add([]byte(bad.doc))
	}
	for _, name := range []string{"regular.json", "workload.json", "routing_dsr_hybrid.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			f.Fatal(err)
		}
		var fixture struct{ Scenario json.RawMessage }
		if err := json.Unmarshal(data, &fixture); err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(fixture.Scenario))
	}
	faults, err := os.ReadFile(filepath.Join("testdata", "selfcheck_faults.json"))
	if err != nil {
		f.Fatal(err)
	}
	workload, err := os.ReadFile(filepath.Join("testdata", "selfcheck_workload.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(fmt.Sprintf(`{"NumNodes": 30, "Faults": %s, "Workload": %s, "Invariants": {"Enabled": true}}`, faults, workload)))
	// Small and dense enough to run, with every timer short enough to
	// fire in the seconds the property steps.
	f.Add([]byte(`{"NumNodes": 12, "AreaSide": 40, "Range": 15, "Algorithm": 3,
		"Churn": {"MeanUptime": 3000000, "MeanDowntime": 1000000},
		"Params": {"JoinStaggerMax": 1000000, "TimerInitial": 2000000, "TimerBasic": 2000000,
			"PingInterval": 3000000, "QueryCollect": 2000000, "QueryGapMin": 1000000, "QueryGapMax": 2000000,
			"Download": {"Enabled": true}, "PeerCache": {"Enabled": true}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := UnmarshalJSONScenario(data)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("accepted scenario fails Validate: %v", err)
		}
		enc, err := MarshalJSONScenario(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not encode: %v", err)
		}
		again, err := UnmarshalJSONScenario(enc)
		if err != nil {
			t.Fatalf("accepted scenario's encoding does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("decode → encode → decode moved the scenario:\n in: %+v\nout: %+v\nvia %s", sc, again, enc)
		}
		// Accepted means runnable: past Validate, nothing a file says may
		// panic while the world is wired or in its first simulated
		// seconds, when members join, search and shake hands (small
		// worlds only, to keep the fuzzer fast).
		if sc.NumNodes <= 64 {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("an accepted scenario panicked: %v\n%s", r, enc)
				}
			}()
			s, err := NewSimulation(sc)
			if err != nil {
				t.Fatalf("accepted scenario does not build: %v\n%s", err, enc)
			}
			if sc.NumNodes <= 16 {
				s.Step(10 * sim.Second)
			}
		}
	})
}
