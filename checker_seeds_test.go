package manetp2p

import (
	"strings"
	"testing"
)

// TestCheckerCleanAcrossSeeds runs the invariant checker over seed
// ranges no fixture pins: the paper's plain 50-node population for all
// four algorithms, over AODV and over each comparator router, and the
// benchmark's everything-on 50-node shape
// (partition + crash plan, scripted workload, health samples, snapshots,
// traffic buckets) for the two algorithms with the most moving parts. A
// golden fixture only shows one seed is clean; this shows the rules hold
// wherever the seed lands. Each finding names the command that replays
// its replication alone.
func TestCheckerCleanAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep: runs without -short")
	}
	faults, err := LoadFaultPlan("testdata/selfcheck_faults.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := LoadWorkloadPlan("testdata/selfcheck_workload.json")
	if err != nil {
		t.Fatal(err)
	}
	type population struct {
		name  string
		sc    Scenario
		flags string // the p2psim flags that rebuild sc beside -alg and -seed
	}
	var pops []population
	for _, alg := range Algorithms() {
		sc := DefaultScenario(50, alg)
		sc.Seed, sc.Replications = 555000, 40
		pops = append(pops, population{"plain/" + alg.String(), sc, "-nodes 50"})
	}
	for _, routing := range []RoutingKind{RoutingDSR, RoutingDSDV, RoutingFlood} {
		name := strings.ToLower(routing.String())
		for _, alg := range Algorithms() {
			sc := DefaultScenario(50, alg)
			sc.Routing = routing
			sc.Seed, sc.Replications = 710000, 8
			pops = append(pops, population{"plain/" + routing.String() + "/" + alg.String(), sc, "-nodes 50 -routing " + name})
		}
	}
	for _, alg := range []Algorithm{Hybrid, Random} {
		sc := DefaultScenario(50, alg)
		sc.Seed, sc.Replications = 777000, 24
		sc.Duration = Seconds(1200)
		sc.Faults, sc.Workload = faults, plan
		sc.HealthEvery, sc.SnapshotEvery, sc.TrafficBucket = Seconds(10), Seconds(120), Seconds(60)
		pops = append(pops, population{"full50/" + alg.String(), sc,
			"-nodes 50 -duration 1200 -faults testdata/selfcheck_faults.json " +
				"-workload testdata/selfcheck_workload.json -health 10 -traffic 60"})
	}
	for _, p := range pops {
		t.Run(p.name, func(t *testing.T) {
			sc := p.sc
			sc.Invariants = &InvariantConfig{Enabled: true}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range res.Invariants.PerReplication {
				for _, v := range pr.Violations {
					t.Errorf("seed %d (replication %d) %s/%s: %s\n\treplay: p2psim -alg %s -seed %d -reps 1 %s -selfcheck",
						pr.Seed, pr.Replication, v.Layer, v.Rule, v.String(),
						strings.ToLower(sc.Algorithm.String()), pr.Seed, p.flags)
				}
			}
			if n := res.Invariants.Violations; n > 0 {
				t.Errorf("%d violations in %d of %d replications", n,
					len(res.Invariants.PerReplication), sc.Replications)
			}
		})
	}
}
