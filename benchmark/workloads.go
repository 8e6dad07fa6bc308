package main

import (
	"fmt"

	"manetp2p"
)

// cell is one scenario of a workload: algorithm × router × geometry ×
// simulated duration. A replication is one cell run under one seed.
type cell struct {
	name string
	sc   manetp2p.Scenario // Replications = 1, Workers = 1; Seed set per replication
}

// workload is a fixed list of cells. One pass runs every cell once,
// each under a seed no other pass or cell uses, so the cell mix a
// workload measures never depends on how many passes fit the budget.
type workload struct {
	name   string
	why    string
	passes int // passes of the fixed full run (driver runs fill -seconds instead)
	cells  []cell
}

// workloadNames is the order every report uses.
var workloadNames = []string{"paper50", "paper150", "scale500", "routers50", "full50"}

// newCell builds one cell from the paper's Table 2 defaults: 75 %
// members, Random Waypoint 1 m/s, range 10 m, snapshots every 300 s.
// A positive shrink replaces the duration (tests).
func newCell(n int, alg manetp2p.Algorithm, routing manetp2p.RoutingKind, seconds float64, shrink manetp2p.Duration) cell {
	sc := manetp2p.DefaultScenario(n, alg)
	sc.Routing = routing
	sc.Duration = manetp2p.Seconds(seconds)
	if shrink > 0 {
		sc.Duration = shrink
	}
	sc.Replications = 1
	sc.Workers = 1
	return cell{name: fmt.Sprintf("%s/%s", alg, routing), sc: sc}
}

// buildWorkloads constructs the five workloads. Geometry, duration and
// cell lists are the benchmark's definition; see README.md for why each
// exists and which layers it loads.
func buildWorkloads(shrink manetp2p.Duration) []workload {
	algs := manetp2p.Algorithms()

	paper50 := workload{name: "paper50", passes: 6,
		why: "the paper's 50-node population, all four algorithms over AODV for 3600 s: sparse, so timers, keepalives and failed discoveries dominate"}
	for _, alg := range algs {
		paper50.cells = append(paper50.cells, newCell(50, alg, manetp2p.RoutingAODV, 3600, shrink))
	}

	paper150 := workload{name: "paper150", passes: 1,
		why: "the paper's 150-node population, Regular over AODV for 600 s: dense broadcast storm, so radio fan-out and the duplicate cache dominate"}
	paper150.cells = append(paper150.cells, newCell(150, manetp2p.Regular, manetp2p.RoutingAODV, 600, shrink))

	scale500 := workload{name: "scale500", passes: 2,
		why: "500 nodes at the 50-node density (316 m arena), Regular over AODV for 1200 s: network-wide failing route discoveries dominate"}
	c := newCell(500, manetp2p.Regular, manetp2p.RoutingAODV, 1200, shrink)
	c.sc.AreaSide = 316
	scale500.cells = append(scale500.cells, c)

	routers50 := workload{name: "routers50", passes: 12,
		why: "the 50-node geometry, Regular over DSR, DSDV and Flood for 3600 s: the cold per-protocol paths an AODV-only change must leave alone"}
	for _, rt := range []manetp2p.RoutingKind{manetp2p.RoutingDSR, manetp2p.RoutingDSDV, manetp2p.RoutingFlood} {
		routers50.cells = append(routers50.cells, newCell(50, manetp2p.Regular, rt, 3600, shrink))
	}

	full50 := workload{name: "full50", passes: 6,
		why: "the 50-node geometry with faults, scripted workload, health sampling, traffic buckets and the invariant checker on: the optional subsystems"}
	for _, alg := range algs {
		c := newCell(50, alg, manetp2p.RoutingAODV, 3600, shrink)
		enableEverything(&c.sc)
		full50.cells = append(full50.cells, c)
	}

	return []workload{paper50, paper150, scale500, routers50, full50}
}

// enableEverything turns on every optional subsystem that feeds a
// Result: the fault injector, the demand engine (the plan of
// testdata/selfcheck_workload.json, rebuilt here so the benchmark reads
// no file it does not own), the health sampler, traffic buckets and the
// invariant checker at its defaults.
func enableEverything(sc *manetp2p.Scenario) {
	s := manetp2p.Seconds
	sc.Faults = manetp2p.FaultPlan{Events: []manetp2p.FaultEvent{
		manetp2p.PartitionFault(s(120), s(90), manetp2p.AxisX, 50),
		manetp2p.CrashGroupFault(s(400), s(120), 20),
	}}
	sc.Workload = &manetp2p.WorkloadPlan{
		Arrival:    manetp2p.WorkloadArrival{Process: manetp2p.ArrivalPoisson, Rate: 0.05},
		Popularity: manetp2p.WorkloadPopularity{Skew: 1.2, DriftPerHour: -0.4, RotateEvery: s(120)},
		Sessions: manetp2p.WorkloadSessions{Classes: []manetp2p.WorkloadSessionClass{
			{Name: "seeder", Weight: 0.2, RateScale: 0.3, UptimeScale: 3},
			{Name: "freerider", Weight: 0.5, RateScale: 1.5},
			{Name: "transient", Weight: 0.3, MeanUptime: s(180), MeanDowntime: s(60)},
		}},
		Phases: []manetp2p.WorkloadPhase{
			{Name: "ramp", Start: 0, RateScale: 0.5},
			{Name: "steady", Start: s(60)},
			{Name: "flash", Start: s(120), RateScale: 3, HotFiles: 3, HotBoost: 0.8},
			{Name: "drain", Start: s(240), RateScale: 0.2},
		},
	}
	sc.HealthEvery = s(10)
	sc.SnapshotEvery = s(120)
	sc.TrafficBucket = s(60)
	sc.Invariants = &manetp2p.InvariantConfig{Enabled: true}
}

// rep names one replication: a cell of the workload under one seed.
type rep struct {
	cell int
	seed int64
}

// scenario returns the replication's ready-to-run scenario.
func (w *workload) scenario(r rep) manetp2p.Scenario {
	sc := w.cells[r.cell].sc
	sc.Seed = r.seed
	return sc
}

// pass returns the replications of pass p under the benchmark seed:
// one per cell, seeds disjoint across cells and passes. Sharing seeds
// between cells would correlate their cost (a seed fixes topology and
// mobility for every algorithm), widening the spread between benchmark
// seeds for the same amount of work.
func (w *workload) pass(seed int64, p int) []rep {
	reps := make([]rep, len(w.cells))
	for c := range w.cells {
		reps[c] = rep{cell: c, seed: seed*1024 + int64(p*len(w.cells)+c)}
	}
	return reps
}
