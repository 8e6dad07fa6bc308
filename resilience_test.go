package manetp2p

import (
	"bytes"
	"fmt"
	"testing"

	"manetp2p/internal/sim"
	"manetp2p/internal/stats"
)

// faultScenario is a dense little network (so the overlay is actually
// connected before the fault) with a 120 s mid-run partition: longer
// than PingInterval + PongTimeout (75 s), so the keepalives must notice
// it. A shorter one can end before any link crossing it is missed.
func faultScenario(alg Algorithm) Scenario {
	sc := DefaultScenario(24, alg)
	sc.AreaSide = 50
	sc.Range = 15
	sc.Duration = 1500 * sim.Second
	sc.Replications = 2
	sc.SnapshotEvery = 0
	sc.HealthEvery = 20 * sim.Second
	sc.Faults = FaultPlan{Events: []FaultEvent{
		PartitionFault(300*sim.Second, 120*sim.Second, AxisX, 25),
	}}
	return sc
}

// TestPartitionReheals asserts the paper's core claim for all four
// algorithms: after a mid-run partition clears, the overlay re-heals —
// its largest-component fraction returns to within 10 % of the
// pre-fault value. Each clause is an exact sign test over sixteen
// replications against a fair coin (12 of 16 for p <= 0.05), so one
// unlucky replication cannot fail it and one lucky one cannot pass it.
//
// For Regular, Random and Hybrid the partition must also leave a trace:
// the replication's trough falls below its baseline. Basic has no
// connected pre-fault overlay here for the partition to cut: each member
// keeps references to its first three responders, and its largest
// component swings between about 0.35, 0.5 and 1 with no fault at all.
// So for Basic the test asserts only the re-heal.
func TestPartitionReheals(t *testing.T) {
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			const reps, alpha = 16, 0.05
			sc := faultScenario(alg)
			sc.Replications = reps
			runs, err := NewPool(0).runReps(sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := aggregate(sc, runs).Resilience
			if r == nil {
				t.Fatal("Resilience nil despite a fault plan")
			}
			if len(r.Times) == 0 || len(r.LargestComp) != len(r.Times) {
				t.Fatalf("telemetry series malformed: %d times, %d largest-comp",
					len(r.Times), len(r.LargestComp))
			}
			if len(r.Events) != 1 {
				t.Fatalf("got %d recovery events, want 1", len(r.Events))
			}
			ev := r.Events[0]
			healed, dipped := 0, 0
			for _, rr := range runs {
				rec := recoveryOf(sc.Faults.Events[0], rr)
				if len(rec.reheal) > 0 {
					healed++
				}
				if rec.trough < rec.baseline {
					dipped++
				}
			}
			t.Logf("%d of %d replications re-healed, %d dipped below their baseline (mean %.3f)",
				healed, reps, dipped, ev.Baseline.Mean)
			if p := stats.SignTest(healed, reps); p > alpha {
				t.Errorf("%d of %d replications re-healed after the partition (reheal %s s, residual %s), sign test p = %.3f > %v",
					healed, reps, ev.RehealSeconds, ev.ResidualDisconnect, p, alpha)
			}
			if alg == Basic {
				return
			}
			if ev.Baseline.Mean <= 0.5 {
				t.Errorf("pre-fault overlay too fragmented for the test to mean anything: mean baseline %.3f",
					ev.Baseline.Mean)
			}
			if p := stats.SignTest(dipped, reps); p > alpha {
				t.Errorf("the partition left a trace in %d of %d replications (trough %.3f, baseline %.3f), sign test p = %.3f > %v",
					dipped, reps, ev.Trough.Mean, ev.Baseline.Mean, p, alpha)
			}
		})
	}
}

// TestResilienceDeterminism asserts the acceptance criterion: identical
// seeds and plans yield byte-identical Resilience sections and health
// series, even with every fault type in the plan.
func TestResilienceDeterminism(t *testing.T) {
	sc := faultScenario(Regular)
	sc.Duration = 900 * sim.Second
	sc.Faults = FaultPlan{Events: []FaultEvent{
		PartitionFault(200*sim.Second, 60*sim.Second, AxisY, 25),
		JamFault(300*sim.Second, 60*sim.Second, 25, 25, 15, 0.8),
		LossBurstFault(400*sim.Second, 30*sim.Second, 0.5),
		CrashGroupFault(500*sim.Second, 120*sim.Second, 6),
		LinkFlapFault(700*sim.Second, 60*sim.Second, 20*sim.Second, 5*sim.Second),
	}}
	render := func() string {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteResilience(&buf, res); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v\n%s", *res.Resilience, buf.String())
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("same seed + same plan produced different resilience output:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestFaultFreeRunHasNoResilience pins the gating: without a plan or an
// explicit HealthEvery, no telemetry is collected.
func TestFaultFreeRunHasNoResilience(t *testing.T) {
	sc := quickScenario(Regular, 12)
	sc.Replications = 1
	sc.Duration = 120 * sim.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience != nil {
		t.Errorf("fault-free run grew a Resilience section: %+v", res.Resilience)
	}
}
