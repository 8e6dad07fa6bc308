package manetp2p

// Determinism golden test: one fixed-seed 50-node scenario per
// algorithm, with snapshots, traffic buckets, health telemetry and a
// scripted partition fault all enabled, asserting the full Result —
// totals, every series, resilience — is byte-identical to a committed
// fixture. The fixtures were generated before the zero-allocation event
// engine landed, so this test proves the pooling/batching refactor
// changed performance, not behavior. Regenerate (only after an
// intentional behavior change) with:
//
//	go test -run TestGoldenResults -update-golden .
//
// and review the fixture diff like any other code change.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the determinism golden fixtures")

// goldenScenario is deliberately busy: every optional subsystem that
// feeds the Result is on, so a behavior drift anywhere shows up here.
func goldenScenario(alg Algorithm) Scenario {
	sc := DefaultScenario(50, alg)
	sc.Duration = 600 * sim.Second
	sc.Replications = 2
	sc.Seed = 7
	sc.SnapshotEvery = 120 * sim.Second
	sc.TrafficBucket = 60 * sim.Second
	sc.HealthEvery = 10 * sim.Second
	sc.Faults = FaultPlan{Events: []FaultEvent{
		PartitionFault(120*sim.Second, 90*sim.Second, AxisX, 50),
	}}
	return sc
}

// runGolden runs a fixture scenario with the invariant checker armed —
// it only observes (TestInvariantsDoNotPerturbResults), so the measured
// bytes are the unchecked run's — and fails on any violation.
func runGolden(t *testing.T, sc Scenario) *Result {
	t.Helper()
	sc.Invariants = &InvariantConfig{Enabled: true}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if inv := res.Invariants; inv == nil || inv.Replications != sc.Replications || !inv.OK() {
		t.Fatalf("golden fixture not validated clean in all %d replications: %+v", sc.Replications, inv)
	}
	return res
}

// goldenMarshal renders a Result in the fixtures' canonical form. The
// fixtures predate the unified routing telemetry, so Routing is stripped
// from a shallow clone before marshalling (json omitempty then elides
// it); routing-counter determinism is still pinned by
// TestGoldenRunRepeatable and TestRoutingTelemetry. The checker's report
// and its arming in the embedded scenario go the same way: the fixtures
// record what was measured, runGolden asserts what was checked.
func goldenMarshal(t *testing.T, res *Result) []byte {
	t.Helper()
	clone := *res
	clone.Routing = nil
	clone.Invariants = nil
	clone.Scenario.Invariants = nil
	got, err := json.MarshalIndent(&clone, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n')
}

// checkGolden compares the marshalled result against the fixture at
// path, rewriting it under -update-golden. A salted build (sim.Salted)
// draws other streams than the fixtures pin, so it neither compares nor
// rewrites.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if sim.Salted() {
		t.Skip("stream salt set: the fixture pins the unsalted streams")
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fixed-seed result drifted from the committed fixture %s\n"+
			"(if the behavior change is intentional, regenerate with -update-golden and review the diff)",
			path)
	}
}

func TestGoldenResults(t *testing.T) {
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			res := runGolden(t, goldenScenario(alg))
			path := filepath.Join("testdata", "golden", strings.ToLower(alg.String())+".json")
			checkGolden(t, path, goldenMarshal(t, res))
		})
	}
}

// goldenRoutingScenario is the substrate-matrix variant of
// goldenScenario: the same busy subsystem mix, sized down so the full
// four-algorithms-by-four-substrates matrix stays cheap to run.
func goldenRoutingScenario(alg Algorithm, routing RoutingKind) Scenario {
	sc := DefaultScenario(50, alg)
	sc.Duration = 300 * sim.Second
	sc.Replications = 1
	sc.Seed = 11
	sc.Routing = routing
	sc.SnapshotEvery = 120 * sim.Second
	sc.TrafficBucket = 60 * sim.Second
	sc.HealthEvery = 10 * sim.Second
	sc.Faults = FaultPlan{Events: []FaultEvent{
		PartitionFault(100*sim.Second, 60*sim.Second, AxisX, 50),
	}}
	return sc
}

// TestGoldenRouting pins fixed-seed results for every algorithm on
// every routing substrate. These fixtures were generated from the
// pre-consolidation routers (each with its own private duplicate cache,
// pending buffer and dispatch path), so byte-identity here proves the
// shared internal/route control plane changed structure, not behavior.
func TestGoldenRouting(t *testing.T) {
	substrates := []struct {
		name string
		kind RoutingKind
	}{
		{"aodv", RoutingAODV},
		{"dsr", RoutingDSR},
		{"flood", RoutingFlood},
		{"dsdv", RoutingDSDV},
	}
	for _, sub := range substrates {
		for _, alg := range Algorithms() {
			sub, alg := sub, alg
			t.Run(sub.name+"/"+alg.String(), func(t *testing.T) {
				t.Parallel()
				res := runGolden(t, goldenRoutingScenario(alg, sub.kind))
				path := filepath.Join("testdata", "golden",
					"routing_"+sub.name+"_"+strings.ToLower(alg.String())+".json")
				checkGolden(t, path, goldenMarshal(t, res))
			})
		}
	}
}

// goldenWorkloadScenario layers the full workload engine — bursty
// arrivals, drifting Zipf popularity, session classes with their own
// churn, and a flash-crowd phase timeline — on top of the busy golden
// scenario, pinning the demand telemetry byte-for-byte.
func goldenWorkloadScenario() Scenario {
	sc := goldenScenario(Regular)
	sc.Workload = &WorkloadPlan{
		Arrival:    WorkloadArrival{Process: ArrivalOnOff, Rate: 0.1},
		Popularity: WorkloadPopularity{Skew: 1.2, DriftPerHour: -0.4, RotateEvery: 120 * sim.Second},
		Sessions:   DefaultWorkloadSessions(),
		Phases: []WorkloadPhase{
			{Name: "ramp", RateScale: 0.5},
			{Name: "steady", Start: 120 * sim.Second},
			{Name: "flash", Start: 240 * sim.Second, RateScale: 3, HotFiles: 3, HotBoost: 0.8},
			{Name: "drain", Start: 480 * sim.Second, RateScale: 0.25},
		},
	}
	return sc
}

// TestGoldenWorkload pins a fixed-seed workload-driven run: the ledger,
// latency summaries and per-class stats in Result.Workload must stay
// byte-identical across refactors of the arrival/popularity engine.
func TestGoldenWorkload(t *testing.T) {
	t.Parallel()
	res := runGolden(t, goldenWorkloadScenario())
	if res.Workload == nil {
		t.Fatal("workload scenario produced no workload telemetry")
	}
	path := filepath.Join("testdata", "golden", "workload.json")
	checkGolden(t, path, goldenMarshal(t, res))
}

// goldenDownloadScenario turns on the transfer extension so the fetch
// and chunk messages — the only wire kinds the other fixtures never
// exercise — flow through the value-typed message plane under a fixed
// seed.
func goldenDownloadScenario() Scenario {
	sc := goldenScenario(Regular)
	sc.Params.Download = p2p.DownloadConfig{Enabled: true}
	return sc
}

// TestGoldenDownload pins a fixed-seed run with downloads enabled: found
// files are fetched chunk-by-chunk and replicated, so the fixture covers
// the transfer path end to end (request, chunks, replication counts in
// the totals) byte-for-byte.
func TestGoldenDownload(t *testing.T) {
	t.Parallel()
	res := runGolden(t, goldenDownloadScenario())
	path := filepath.Join("testdata", "golden", "download.json")
	checkGolden(t, path, goldenMarshal(t, res))
}

// TestGoldenRunRepeatable guards the weaker property independently of
// the fixtures: two in-process runs of the same scenario are identical,
// whatever the fixture says.
func TestGoldenRunRepeatable(t *testing.T) {
	sc := goldenScenario(Regular)
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("same scenario produced different results in the same process")
	}
}

// goldenReportScenario has every render and stream path live: the
// workload scenario plus a finite battery.
func goldenReportScenario() Scenario {
	sc := goldenWorkloadScenario()
	sc.Energy = DefaultEnergy(5)
	return sc
}

// TestGoldenReportText pins the full rendered text report — the
// WriteSummary walk over the section list plus the resilience and
// workload reports — for one fixed-seed scenario with every render path
// live (faults, health telemetry, workload plan, finite energy,
// traffic buckets, snapshots). The summary's layout is the order of the
// section list, so this fixture is what pins the report layout itself,
// independent of the JSON fixtures.
func TestGoldenReportText(t *testing.T) {
	t.Parallel()
	res, err := Run(goldenReportScenario())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteSummary(&buf, res)
	buf.WriteByte('\n')
	if err := WriteResilience(&buf, res); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	if err := WriteWorkload(&buf, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden", "report.txt"), buf.Bytes())
}

// TestGoldenMetricsStream pins the streamed time series — every
// section's stream hook, the point order and the JSONL encoding — for
// the report scenario, and that the bytes depend on neither the worker
// count nor on whether a replication was simulated or loaded from a
// checkpoint.
func TestGoldenMetricsStream(t *testing.T) {
	t.Parallel()
	sc := goldenReportScenario()
	stream := func(run func(MetricsSink) error) []byte {
		t.Helper()
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		if err := run(sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	withWorkers := func(workers int) []byte {
		sc := sc
		sc.Workers = workers
		return stream(func(sink MetricsSink) error {
			_, err := NewPool(workers).Run(sc, Outputs{Sink: sink})
			return err
		})
	}
	serial := withWorkers(1)
	checkGolden(t, filepath.Join("testdata", "golden", "metrics.jsonl"), serial)
	if !bytes.Equal(serial, withWorkers(4)) {
		t.Error("metrics stream differs between 1 and 4 workers")
	}
	killed := killedAfter(t, finishedCheckpoint(t, sc), 1)
	resumed := stream(func(sink MetricsSink) error {
		_, err := NewPool(0).Run(sc, Outputs{Checkpoint: killed, Sink: sink})
		return err
	})
	if !bytes.Equal(serial, resumed) {
		t.Error("metrics stream of a resumed run differs from the uninterrupted run's")
	}
}
