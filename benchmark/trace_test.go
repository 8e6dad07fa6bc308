package main

import (
	"testing"

	"manetp2p"
)

// tinyScenario is dense enough for a connected overlay and short enough
// to trace three times in a fraction of a second.
func tinyScenario() manetp2p.Scenario {
	sc := manetp2p.DefaultScenario(24, manetp2p.Regular)
	sc.AreaSide = 50
	sc.Range = 15
	sc.Duration = manetp2p.Seconds(120)
	sc.SnapshotEvery = manetp2p.Seconds(30)
	sc.Replications = 1
	sc.Workers = 1
	sc.Seed = 42
	return sc
}

// behaviour is what was simulated: every counter but the event count
// (the snapshot ticker's own firings are events) and the heap reading.
func behaviour(c counts) counts {
	c.Events, c.LiveHeap = 0, 0
	return c
}

// TestHooksChangeNothing traces one scenario twice with the hooks and
// once without: the counters repeat exactly, the hooks leave the
// simulated behaviour as it is, and both match the untraced Run.
func TestHooksChangeNothing(t *testing.T) {
	sc := tinyScenario()
	a, spansA, err := traceReplication(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	b, spansB, err := traceReplication(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	bare, spansBare, err := traceReplication(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if behaviour(a) != behaviour(b) || a.Events != b.Events {
		t.Errorf("two traced executions differ:\n%+v\n%+v", a, b)
	}
	if behaviour(a) != behaviour(bare) {
		t.Errorf("the hooks changed the run:\nhooked %+v\nbare   %+v", a, bare)
	}
	if a.Events <= bare.Events {
		t.Errorf("events %d hooked, %d bare: the snapshot ticker's firings are missing", a.Events, bare.Events)
	}
	for _, name := range []string{"p2p.recv", "graphs.analyze", "sim.run", "manet.build"} {
		if spansA.get(name).Count == 0 || spansA.get(name).Count != spansB.get(name).Count {
			t.Errorf("span %s: %d and %d executions", name, spansA.get(name).Count, spansB.get(name).Count)
		}
	}
	if got := spansA.get("graphs.analyze").Count; got != 4 {
		t.Errorf("%d snapshots in 120 s at one per 30 s, want 4", got)
	}
	if spansA.get("p2p.recv").Count != int64(a.MsgsRecv) {
		t.Errorf("%d handler calls timed, %d messages counted", spansA.get("p2p.recv").Count, a.MsgsRecv)
	}
	if spansBare.get("p2p.recv").Count != 0 {
		t.Error("spans recorded without hooks")
	}

	ex := execute(sc)
	if ex.err != nil {
		t.Fatal(ex.err)
	}
	if a.TxFrames != ex.txFrames || a.RxFrames != ex.rxFrames || a.Route.Delivered != ex.delivered {
		t.Errorf("traced tx/rx/delivered %d/%d/%d, untraced Run %d/%d/%d",
			a.TxFrames, a.RxFrames, a.Route.Delivered, ex.txFrames, ex.rxFrames, ex.delivered)
	}
	if again := execute(sc); again.digest != ex.digest {
		t.Error("two untraced executions of the same inputs give different digests")
	}
}

// TestPassSeedsDisjoint pins the seed derivation: no two replications
// of a workload share a seed, and other benchmark seeds give other
// replication seeds.
func TestPassSeedsDisjoint(t *testing.T) {
	w := buildWorkloads(0)[0]
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for p := 0; p < 50; p++ {
			for _, r := range w.pass(seed, p) {
				if seen[r.seed] {
					t.Fatalf("seed %d pass %d: replication seed %d reused", seed, p, r.seed)
				}
				seen[r.seed] = true
			}
		}
	}
}
