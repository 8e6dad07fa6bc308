package invariant_test

import (
	"math"
	"testing"

	"manetp2p/internal/fault"
	"manetp2p/internal/invariant"
	"manetp2p/internal/manet"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
	"manetp2p/internal/workload"
)

// full50Cell is one cell of the benchmark's full50 workload: the paper's
// 50-node geometry with a partition, a crash group, a scripted workload,
// health sampling, snapshots, traffic buckets and the checker armed.
func full50Cell(alg p2p.Algorithm) manet.Scenario {
	s := sim.Second
	sc := manet.DefaultScenario(50, alg)
	sc.Seed = 77
	sc.Duration = 3600 * s
	sc.Faults = fault.Plan{Events: []fault.Event{
		fault.PartitionEvent(120*s, 90*s, fault.AxisX, 50),
		fault.CrashGroupEvent(400*s, 120*s, 20),
	}}
	sc.Workload = &workload.Plan{
		Arrival:    workload.Arrival{Process: workload.Poisson, Rate: 0.05},
		Popularity: workload.Popularity{Skew: 1.2, DriftPerHour: -0.4, RotateEvery: 120 * s},
		Sessions: workload.Sessions{Classes: []workload.SessionClass{
			{Name: "seeder", Weight: 0.2, RateScale: 0.3, UptimeScale: 3},
			{Name: "freerider", Weight: 0.5, RateScale: 1.5},
			{Name: "transient", Weight: 0.3, MeanUptime: 180 * s, MeanDowntime: 60 * s},
		}},
		Phases: []workload.Phase{
			{Name: "ramp", Start: 0, RateScale: 0.5},
			{Name: "steady", Start: 60 * s},
			{Name: "flash", Start: 120 * s, RateScale: 3, HotFiles: 3, HotBoost: 0.8},
			{Name: "drain", Start: 240 * s, RateScale: 0.2},
		},
	}
	sc.HealthEvery = 10 * s
	sc.SnapshotEvery = 120 * s
	sc.TrafficBucket = 60 * s
	sc.Invariants = &invariant.Config{Enabled: true}
	return sc
}

// batchAllocs counts the heap allocations of a batch of runs calls of
// op, each count after a warm-up batch, and returns the fewest of
// allocBatches counts: 2*allocBatches*runs calls in all. Counted whole,
// an allocation made less than once per call (a chunk every so many
// ops) cannot round away, as it would in testing.AllocsPerRun's
// per-call quotient. One of op's shows in every count; one the Go
// runtime makes meanwhile (its background scavenger re-arming a timer)
// in one count at most.
func batchAllocs(runs int, op func()) int {
	batch := func() {
		for range runs {
			op()
		}
	}
	fewest := math.MaxInt
	for range allocBatches {
		fewest = min(fewest, int(testing.AllocsPerRun(1, batch)))
	}
	return fewest
}

// allocBatches is how many batches batchAllocs counts.
const allocBatches = 5

// checkPass is one op of the checker-pass workload.
type checkPass struct {
	name string
	op   func()
}

// newCheckPassBench builds a full50 cell of alg and runs it to 450 s,
// the partition healed and 20 members down, then warms the checker with
// one pass. Its ops are a checker pass and each layer audit the pass
// runs, violated reporting each audit finding.
func newCheckPassBench(tb testing.TB, alg p2p.Algorithm, violated func(rule, detail string)) (*invariant.Checker, []checkPass) {
	net, err := manet.Build(full50Cell(alg), 0, manet.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	net.Run(450 * sim.Second)
	chk := net.Checker
	chk.Check()
	return chk, []checkPass{
		{"Checker.Check", chk.Check},
		{"Sim.Audit", func() { net.Sim.Audit(violated) }},
		{"Medium.Audit", func() { net.Medium.Audit(violated) }},
		{"Plane.Audit", func() { chk.PlaneForTest().Audit(violated) }},
	}
}

func BenchmarkCheckPass(b *testing.B) {
	_, ops := newCheckPassBench(b, p2p.Regular, func(rule, detail string) { b.Fatalf("%s: %s", rule, detail) })
	for _, c := range ops {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.op()
			}
		})
	}
}

// TestCheckPassZeroAllocs holds a checker pass, and each layer audit it
// runs, to no allocation once its scratch is warm: after the warm-up
// pass, a batch of passes allocates nothing, for every algorithm. Each
// audit keeps its own scratch, so on a checked replication only the
// first pass pays for it.
func TestCheckPassZeroAllocs(t *testing.T) {
	for _, alg := range p2p.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			chk, ops := newCheckPassBench(t, alg, func(rule, detail string) { t.Errorf("%s: %s", rule, detail) })
			const passes = 20
			for _, c := range ops {
				if n := batchAllocs(passes, c.op); n != 0 {
					t.Errorf("%d passes of %s allocate %d objects, want 0", passes, c.name, n)
				}
			}
			if !chk.OK() {
				for _, v := range chk.Violations() {
					t.Errorf("violation: %s", v)
				}
			}
		})
	}
}
