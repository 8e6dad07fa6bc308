package manetp2p

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"manetp2p/internal/sim"
	"manetp2p/internal/trace"
)

// checkedScenario arms the invariant checker on a quick scenario.
func checkedScenario(alg Algorithm, nodes int) Scenario {
	sc := quickScenario(alg, nodes)
	sc.Invariants = &InvariantConfig{Enabled: true}
	return sc
}

func TestInvariantsCleanMatrix(t *testing.T) {
	plans := map[string]FaultPlan{
		"nofault": {},
		"partition": {Events: []FaultEvent{
			PartitionFault(60*sim.Second, 60*sim.Second, AxisX, 50),
			CrashGroupFault(150*sim.Second, 60*sim.Second, 15),
		}},
	}
	for _, alg := range Algorithms() {
		for name, plan := range plans {
			alg, plan := alg, plan
			t.Run(alg.String()+"/"+name, func(t *testing.T) {
				t.Parallel()
				sc := checkedScenario(alg, 24)
				sc.Faults = plan
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if res.Invariants == nil {
					t.Fatal("checker armed but Result.Invariants is nil")
				}
				if !res.Invariants.OK() {
					for _, pr := range res.Invariants.PerReplication {
						for _, v := range pr.Violations {
							t.Errorf("rep %d (seed %d): %s", pr.Replication, pr.Seed, v.String())
						}
					}
					t.Fatalf("clean run reported %d violations", res.Invariants.Violations)
				}
				if res.Invariants.Replications != sc.Replications {
					t.Errorf("checked %d replications, want %d", res.Invariants.Replications, sc.Replications)
				}
			})
		}
	}
}

func TestInvariantsNilWhenDisabled(t *testing.T) {
	res, err := Run(quickScenario(Regular, 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariants != nil {
		t.Fatalf("checker off but Result.Invariants = %+v", res.Invariants)
	}
	// Nil report reads as passing: callers can always write report.OK().
	var nilReport *InvariantReport
	if !nilReport.OK() {
		t.Error("nil InvariantReport must report OK")
	}
}

func TestInvariantsDoNotPerturbResults(t *testing.T) {
	// The checker only observes: measured metrics with it armed must be
	// byte-identical to the unchecked run (golden-compatibility depends
	// on this).
	plain := quickScenario(Random, 20)
	checked := plain
	checked.Invariants = &InvariantConfig{Enabled: true, Every: 10 * sim.Second}

	a, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(checked)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Invariants.OK() {
		t.Fatalf("checked run has violations: %+v", b.Invariants)
	}
	// Compare everything except the two fields that legitimately differ.
	b.Invariants = nil
	b.Scenario.Invariants = nil
	aj, err := json.Marshal(&a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatal("arming the checker changed measured results")
	}
}

func TestSelfAuditPasses(t *testing.T) {
	sc := quickScenario(Hybrid, 20)
	sc.Workers = 2
	rep, err := SelfAudit(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic {
		t.Errorf("determinism audit failed: %s", rep.Detail)
	}
	if !rep.ScheduleIndependent {
		t.Errorf("schedule-independence audit failed: %s", rep.Detail)
	}
	if !rep.PooledN {
		t.Errorf("pooled-N conservation audit failed: %s", rep.Detail)
	}
	if !rep.StepIndependent {
		t.Errorf("stepping audit (replication record) failed: %s", rep.Detail)
	}
	if !rep.Invariants.OK() {
		t.Errorf("invariant violations during self-audit: %+v", rep.Invariants)
	}
	if !rep.OK() {
		t.Error("self-audit did not pass overall")
	}
}

// TestStepSegmentationLeavesReplicationAlone is the re-segment
// metamorphic test: stopping the clock anywhere on the way to the
// horizon — evenly, 1 µs in, on the instants snapshots, health samples
// and keepalive pings fire, at a prime stride — must leave replication
// 0's record byte-identical to a run straight there, with every optional
// subsystem on. The invariance is exact, not distributional: a stop
// draws no randomness and schedules nothing, so the event sequence
// itself is the same, not merely its statistics.
func TestStepSegmentationLeavesReplicationAlone(t *testing.T) {
	every := func(sc Scenario, period Duration) []Duration {
		var cuts []Duration
		for at := period; at < sc.Duration; at += period {
			cuts = append(cuts, at)
		}
		return cuts
	}
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			sc := checkedScenario(alg, 20)
			sc.Replications = 1
			sc.AreaSide, sc.Range = 50, 15 // a connected overlay
			sc.SnapshotEvery = 30 * sim.Second
			sc.HealthEvery = 10 * sim.Second
			sc.TrafficBucket = 20 * sim.Second
			sc.Faults = FaultPlan{Events: []FaultEvent{
				PartitionFault(60*sim.Second, 60*sim.Second, AxisX, 25),
				CrashGroupFault(150*sim.Second, 60*sim.Second, 8),
			}}
			var err error
			if sc.Workload, err = LoadWorkloadPlan("testdata/selfcheck_workload.json"); err != nil {
				t.Fatal(err)
			}

			// An initiator's first ping fires PingInterval after the
			// connection is installed; a traced run says when that was.
			var pings []Duration
			for _, e := range traceEvents(t, sc) {
				if at := e.At + sc.Params.PingInterval; e.Kind == trace.KindConn && at < sc.Duration &&
					strings.HasPrefix(e.What, "established") && (len(pings) == 0 || at > pings[len(pings)-1]) {
					pings = append(pings, at)
				}
			}
			if len(pings) == 0 {
				t.Fatal("no connection was established: the ping-tick segmentation has no boundary")
			}

			straight, err := replicationRecord(sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range []struct {
				name string
				cuts []Duration
			}{
				{"eight equal", every(sc, sc.Duration/8)},
				{"1us first", []Duration{sim.Microsecond}},
				{"on snapshots", every(sc, sc.SnapshotEvery)},
				{"on health samples", every(sc, sc.HealthEvery)},
				{"on ping ticks", pings},
				{"prime stride", every(sc, 37_000_039)}, // µs; prime
			} {
				stepped, err := replicationRecord(sc, seg.cuts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(straight, stepped) {
					t.Errorf("%s (%d stops): %s", seg.name, len(seg.cuts), diffDetail("stepped record", straight, stepped))
				}
			}
		})
	}
}

// TestAuditPooledN pins the telemetry plane's pooled-sample
// conservation law: a clean aggregated Result passes, and corrupting
// any pooled sample count — per-node, per-replication, or the
// cross-class member population — is caught and named.
func TestAuditPooledN(t *testing.T) {
	sc := quickScenario(Regular, 20)
	sc.Workload = &WorkloadPlan{}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if detail := auditPooledN(res); detail != "" {
		t.Fatalf("clean result fails pooled-N audit: %s", detail)
	}
	type mutation struct {
		name    string
		corrupt func(*Result)
	}
	cases := []mutation{
		{"per-node", func(r *Result) { r.RxFrames.N-- }},
		{"per-replication", func(r *Result) { r.Deaths.N++ }},
		{"cross-class", func(r *Result) { r.Totals[1].N++ }},
		{"routing", func(r *Result) { r.Routing.Delivered.N-- }},
		{"workload", func(r *Result) { r.Workload.Offered.N++ }},
	}
	// One mutation per row of the two counter tables: every pooled
	// summary the tables name is under the audit.
	for _, c := range routingCounters {
		cases = append(cases, mutation{"route/" + c.name, func(r *Result) { c.pooled(r.Routing).N++ }})
	}
	for _, c := range workloadCounters {
		cases = append(cases, mutation{"workload/" + c.name, func(r *Result) { c.pooled(r.Workload).N-- }})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clone := *res
			routing := *res.Routing
			clone.Routing = &routing
			workload := *res.Workload
			clone.Workload = &workload
			tc.corrupt(&clone)
			if detail := auditPooledN(&clone); detail == "" {
				t.Error("corrupted pooled N not detected")
			}
		})
	}
}

func TestScenarioJSONInvariantsRoundTrip(t *testing.T) {
	sc := DefaultScenario(50, Regular)
	sc.Invariants = &InvariantConfig{Enabled: true, Every: 15 * sim.Second, MaxViolations: 8}
	data, err := MarshalJSONScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalJSONScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Invariants == nil || !got.Invariants.Enabled ||
		got.Invariants.Every != 15*sim.Second || got.Invariants.MaxViolations != 8 {
		t.Fatalf("Invariants lost in round trip: %+v", got.Invariants)
	}

	// Scenarios that never arm the checker must serialize exactly as
	// before the field existed — golden fixtures depend on the key being
	// absent, not null.
	plain, err := MarshalJSONScenario(DefaultScenario(50, Regular))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte("Invariants")) {
		t.Fatal("unarmed scenario serializes an Invariants key")
	}
}

func TestScenarioValidateRejectsBadProtocolTiming(t *testing.T) {
	bads := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"odd MaxNHops", func(s *Scenario) { s.Params.MaxNHops = 5 }},
		{"odd NHopsInitial", func(s *Scenario) { s.Params.NHopsInitial = 3; s.Params.MaxNHops = 6 }},
		{"zero HandshakeWait", func(s *Scenario) { s.Params.HandshakeWait = 0 }},
		{"zero OfferWindow", func(s *Scenario) { s.Params.OfferWindow = 0 }},
		{"zero MasterIdle", func(s *Scenario) { s.Params.MasterIdle = 0 }},
		{"negative JoinStaggerMax", func(s *Scenario) { s.Params.JoinStaggerMax = -1 }},
		{"negative checker interval", func(s *Scenario) { s.Invariants = &InvariantConfig{Every: -1} }},
	}
	for _, bad := range bads {
		sc := DefaultScenario(50, Regular)
		bad.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: accepted", bad.name)
		}
	}
}
