package manetp2p

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"manetp2p/internal/sim"
	"manetp2p/internal/stats"
	"manetp2p/internal/telemetry"
)

// quickScenario returns a small, fast scenario for tests.
func quickScenario(alg Algorithm, nodes int) Scenario {
	sc := DefaultScenario(nodes, alg)
	sc.Duration = 300 * sim.Second
	sc.Replications = 2
	sc.SnapshotEvery = 100 * sim.Second
	return sc
}

func TestScenarioValidate(t *testing.T) {
	if err := DefaultScenario(50, Regular).Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
	bads := []func(*Scenario){
		func(s *Scenario) { s.NumNodes = 0 },
		func(s *Scenario) { s.MemberFraction = 0 },
		func(s *Scenario) { s.AreaSide = 0 },
		func(s *Scenario) { s.Range = -1 },
		func(s *Scenario) { s.MaxSpeed = 0 },
		func(s *Scenario) { s.Duration = 0 },
		func(s *Scenario) { s.Replications = 0 },
		func(s *Scenario) { s.Params.QueryTTL = 0 },
		func(s *Scenario) { s.Files.MaxFreq = 2 },
		// NaN reaches these through the -p2p, -area, -range and -speed
		// flags; it used to run (or panic in mobility) instead.
		func(s *Scenario) { s.MemberFraction = math.NaN() },
		func(s *Scenario) { s.AreaSide = math.NaN() },
		func(s *Scenario) { s.Range = math.NaN() },
		func(s *Scenario) { s.MaxSpeed = math.NaN() },
		// ±Inf reaches them the same way; +Inf used to run with nodes
		// teleporting (or, for the arena, crossing it in 1 µs legs).
		func(s *Scenario) { s.MaxSpeed = math.Inf(1) },
		func(s *Scenario) { s.MaxSpeed = math.Inf(-1) },
		func(s *Scenario) { s.AreaSide, s.Range = math.Inf(1), math.Inf(1) },
		func(s *Scenario) { s.AreaSide = math.Inf(-1) },
	}
	for i, mutate := range bads {
		sc := DefaultScenario(50, Regular)
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

func TestRunProducesPaperMetrics(t *testing.T) {
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(quickScenario(alg, 24))
			if err != nil {
				t.Fatal(err)
			}
			n := 24.0
			members := int(n*0.75 + 0.5)
			if len(res.ConnectSeries) != members {
				t.Errorf("ConnectSeries length = %d, want %d members", len(res.ConnectSeries), members)
			}
			if len(res.PerFile) != res.Scenario.Files.NumFiles {
				t.Errorf("PerFile length = %d, want %d", len(res.PerFile), res.Scenario.Files.NumFiles)
			}
			if res.Totals[telemetry.Connect].Mean <= 0 {
				t.Error("no connect messages recorded")
			}
			// Series must be nonincreasing (they are rank-wise means of
			// sorted series).
			for i := 1; i < len(res.ConnectSeries); i++ {
				if res.ConnectSeries[i] > res.ConnectSeries[i-1]+1e-9 {
					t.Errorf("ConnectSeries not nonincreasing at %d", i)
					break
				}
			}
			reqs := 0
			for _, fc := range res.PerFile {
				reqs += fc.Requests
			}
			if reqs == 0 {
				t.Error("no query requests recorded")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := quickScenario(Random, 20)
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.ConnectSeries {
		if a.ConnectSeries[i] != b.ConnectSeries[i] {
			t.Fatalf("ConnectSeries diverged at rank %d: %v vs %v", i, a.ConnectSeries[i], b.ConnectSeries[i])
		}
	}
	if a.Totals[telemetry.Ping].Mean != b.Totals[telemetry.Ping].Mean {
		t.Error("ping totals diverged between identical runs")
	}
}

func TestWorkerCountDoesNotAffectResults(t *testing.T) {
	// Replications are independently seeded, so results must not depend
	// on how they are scheduled across workers.
	base := quickScenario(Random, 18)
	base.Replications = 4
	serial := base
	serial.Workers = 1
	parallel := base
	parallel.Workers = 4
	a, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(parallel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.ConnectSeries {
		if a.ConnectSeries[i] != b.ConnectSeries[i] {
			t.Fatalf("worker count changed results at rank %d: %v vs %v",
				i, a.ConnectSeries[i], b.ConnectSeries[i])
		}
	}
	if len(a.PerFile) != len(b.PerFile) {
		t.Fatal("PerFile lengths differ")
	}
	for f := range a.PerFile {
		if a.PerFile[f].Requests != b.PerFile[f].Requests {
			t.Fatalf("file %d request counts differ across worker counts", f)
		}
	}
}

func TestBasicFloodsMoreThanRegular(t *testing.T) {
	// Figures 7 and 9's headline at the paper's own scale (50 nodes,
	// 3600 s): Basic's indiscriminate fixed-radius broadcasts cost more
	// connect and ping messages per node than Regular's progressive
	// scheme. Stated as a paired sign test: on each of six seeds both
	// algorithms run over the same topology and mobility, and Basic must
	// cost more on every one, p = 1/64 under the null that neither
	// costs more.
	if testing.Short() {
		t.Skip("twelve 50-node 3600 s replications")
	}
	const seeds, alpha = 6, 0.05
	var connectWins, pingWins, connectTies, pingTies int
	for seed := int64(1); seed <= seeds; seed++ {
		scB := DefaultScenario(50, Basic)
		scB.Seed, scB.Replications = seed, 1
		scR := scB
		scR.Algorithm = Regular
		basic, err := Run(scB)
		if err != nil {
			t.Fatal(err)
		}
		regular, err := Run(scR)
		if err != nil {
			t.Fatal(err)
		}
		b, r := basic.Totals[telemetry.Connect].Mean, regular.Totals[telemetry.Connect].Mean
		bp, rp := basic.Totals[telemetry.Ping].Mean, regular.Totals[telemetry.Ping].Mean
		t.Logf("seed %d: connect msgs per node Basic %.1f Regular %.1f; ping Basic %.1f Regular %.1f", seed, b, r, bp, rp)
		switch {
		case b > r:
			connectWins++
		case b == r:
			connectTies++
		}
		switch {
		case bp > rp:
			pingWins++
		case bp == rp:
			pingTies++
		}
	}
	if p := stats.SignTest(connectWins, seeds-connectTies); p > alpha {
		t.Errorf("connect msgs per node: Basic above Regular on %d of %d untied seeds, sign test p = %.3f > %v; paper's Figure 7 shape violated",
			connectWins, seeds-connectTies, p, alpha)
	}
	if p := stats.SignTest(pingWins, seeds-pingTies); p > alpha {
		t.Errorf("ping msgs per node: Basic above Regular on %d of %d untied seeds, sign test p = %.3f > %v; paper's Figure 9 shape violated",
			pingWins, seeds-pingTies, p, alpha)
	}
}

func TestAliveSeriesTracksChurnAndDeath(t *testing.T) {
	sc := quickScenario(Regular, 20)
	sc.Duration = 900 * sim.Second
	sc.SnapshotEvery = 60 * sim.Second
	sc.Replications = 1
	sc.Energy = DefaultEnergy(0.3) // tiny budget: nodes die mid-run
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AliveSeries) == 0 {
		t.Fatal("no alive series with snapshots on")
	}
	first, last := res.AliveSeries[0], res.AliveSeries[len(res.AliveSeries)-1]
	if last >= first {
		t.Errorf("alive fraction did not decay under battery death: %.2f -> %.2f", first, last)
	}
	if len(res.DegreeSeries) != len(res.AliveSeries) {
		t.Errorf("series lengths differ: %d vs %d", len(res.DegreeSeries), len(res.AliveSeries))
	}
	for _, v := range res.AliveSeries {
		if v < 0 || v > 1 {
			t.Fatalf("alive fraction %v outside [0,1]", v)
		}
	}
	// The summary covers the energy branch for finite-battery runs.
	var buf bytes.Buffer
	WriteSummary(&buf, res)
	if !strings.Contains(buf.String(), "energy:") {
		t.Error("summary omitted energy for a finite-battery scenario")
	}
}

func TestSimulationStepAPI(t *testing.T) {
	sc := quickScenario(Regular, 16)
	s, err := NewSimulation(sc)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(60 * sim.Second)
	if s.Now() != 60*sim.Second {
		t.Errorf("Now = %v, want 60s", s.Now())
	}
	if s.Net.AliveMembers() == 0 {
		t.Error("no members alive")
	}
}

func TestConnLifetimeRecorded(t *testing.T) {
	sc := quickScenario(Regular, 24)
	sc.Duration = 900 * sim.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Mobility at 1 m/s over a 100 m arena breaks links within the run.
	if res.ConnLifetime.N == 0 {
		t.Fatal("no connection lifetimes recorded in 15 mobile minutes")
	}
	if res.ConnLifetime.Mean <= 0 || res.ConnLifetime.Mean > 900 {
		t.Errorf("mean lifetime %.1f s out of range", res.ConnLifetime.Mean)
	}
	if res.ConnLifetime.Min < 0 {
		t.Errorf("negative lifetime recorded")
	}
}

func TestTrafficSeriesShowsFormationBurst(t *testing.T) {
	// The overlay settles only where the topology does: under mobility
	// links break and re-form all run long, and early traffic outweighs
	// late on about half the seeds. Stationary nodes construct the
	// precondition.
	sc := quickScenario(Regular, 20)
	sc.Duration = 1200 * sim.Second
	sc.Replications = 2
	sc.TrafficBucket = 120 * sim.Second
	sc.Mobility = MobilityStationary
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ConnectTraffic) == 0 {
		t.Fatal("no connect traffic series with bucketing on")
	}
	if len(res.ConnectTraffic) > 12 {
		t.Errorf("series length %d exceeds duration/bucket", len(res.ConnectTraffic))
	}
	// Network formation concentrates connect traffic early: the first
	// two buckets should outweigh the last two (nodes back off or fill
	// up as the overlay settles).
	early := res.ConnectTraffic[0] + res.ConnectTraffic[1]
	n := len(res.ConnectTraffic)
	late := res.ConnectTraffic[n-1] + res.ConnectTraffic[n-2]
	if early <= late {
		t.Errorf("no formation burst: early %.1f <= late %.1f", early, late)
	}
	var buf bytes.Buffer
	if err := WriteTrafficSeries(&buf, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != n+2 {
		t.Errorf("traffic series lines = %d, want %d", lines, n+2)
	}
	if err := WriteTrafficSeries(io.Discard, nil); err != nil {
		t.Fatal(err)
	}
}

// Regression: the bucketed traffic series stopped at a replication's
// last message, so a quiet tail shortened it, a silent replication
// recorded none, and pooling cut every series to the shortest one and
// left the silent replications out of the mean. Ten sparse nodes for
// 90 s give both kinds among these seeds. Every series spans the
// horizon's three buckets now, and the pooled buckets add up to the
// pooled per-member totals.
func TestTrafficSeriesSpanTheHorizon(t *testing.T) {
	sc := DefaultScenario(10, Regular)
	sc.Duration = 90 * sim.Second
	sc.TrafficBucket = 30 * sim.Second
	sc.Replications = 12
	sc.Seed = 1
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		class  telemetry.Class
		series []float64
	}{{telemetry.Connect, res.ConnectTraffic}, {telemetry.Query, res.QueryTraffic}} {
		if len(c.series) != 3 {
			t.Errorf("%v: %d buckets, want 3", c.class, len(c.series))
		}
		var sum float64
		for _, v := range c.series {
			sum += v
		}
		if want := res.Totals[c.class].Mean; math.Abs(sum-want) > 1e-9*max(1, want) {
			t.Errorf("%v: buckets add up to %.6f per member, totals say %.6f", c.class, sum, want)
		}
	}
}

func TestScenarioRoutingAndMobilityMapping(t *testing.T) {
	// Every routing substrate and mobility model must build and run
	// through the public Scenario API.
	for _, routing := range []RoutingKind{RoutingAODV, RoutingDSR, RoutingDSDV, RoutingFlood} {
		sc := quickScenario(Regular, 12)
		sc.Duration = 120 * sim.Second
		sc.Replications = 1
		sc.Routing = routing
		if _, err := Run(sc); err != nil {
			t.Errorf("routing %v: %v", routing, err)
		}
	}
	for _, mob := range []MobilityKind{MobilityWaypoint, MobilityStationary, MobilityWalk, MobilityDirection, MobilityGaussMarkov} {
		sc := quickScenario(Regular, 12)
		sc.Duration = 120 * sim.Second
		sc.Replications = 1
		sc.Mobility = mob
		if _, err := Run(sc); err != nil {
			t.Errorf("mobility %v: %v", mob, err)
		}
	}
	// MobilityStationary freezes every node.
	sc := quickScenario(Regular, 4)
	sc.Mobility = MobilityStationary
	s, err := NewSimulation(sc)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Net.Medium.Pos(0)
	s.Step(5 * sim.Minute)
	if s.Net.Medium.Pos(0) != before {
		t.Error("MobilityStationary did not freeze movement")
	}
}

func TestGiniCoefficient(t *testing.T) {
	if g := GiniCoefficient([]float64{5, 5, 5, 5}); math.Abs(g) > 1e-9 {
		t.Errorf("uniform gini = %v, want 0", g)
	}
	g := GiniCoefficient([]float64{0, 0, 0, 100})
	if g < 0.7 {
		t.Errorf("concentrated gini = %v, want high", g)
	}
	if GiniCoefficient(nil) != 0 || GiniCoefficient([]float64{0, 0}) != 0 {
		t.Error("degenerate gini not 0")
	}
	// More even distributions score lower.
	if GiniCoefficient([]float64{1, 2, 3, 4}) >= GiniCoefficient([]float64{0, 0, 1, 9}) {
		t.Error("gini ordering violated")
	}
}

func TestReportWriters(t *testing.T) {
	res, err := Run(quickScenario(Regular, 16))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFileCurves(&buf, []*Result{res}, 10); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 12 { // header x2 + 10 files
		t.Errorf("file curves lines = %d, want 12:\n%s", lines, buf.String())
	}
	buf.Reset()
	if err := WriteNodeSeries(&buf, SeriesConnect, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "connect") {
		t.Error("node series missing header")
	}
	buf.Reset()
	WriteTable1(&buf)
	for _, want := range []string{"Manageable", "Lawsuit-proof", "apparently"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	buf.Reset()
	WriteTable2(&buf, res.Scenario)
	for _, want := range []string{"MAXNCONN", "40%", "TTL for queries"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
	buf.Reset()
	WriteSummary(&buf, res)
	if !strings.Contains(buf.String(), "Regular") {
		t.Error("summary missing algorithm name")
	}
}

func TestSeriesKindString(t *testing.T) {
	for k, want := range map[SeriesKind]string{SeriesConnect: "connect", SeriesPing: "ping", SeriesQuery: "query"} {
		if k.String() != want {
			t.Errorf("String() = %q, want %q", k.String(), want)
		}
	}
}

func TestWriteNodeSeriesAllKinds(t *testing.T) {
	res, err := Run(quickScenario(Regular, 12))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SeriesKind{SeriesConnect, SeriesPing, SeriesQuery} {
		var buf bytes.Buffer
		if err := WriteNodeSeries(&buf, kind, []*Result{res, res}); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), kind.String()) {
			t.Errorf("%v series output missing header", kind)
		}
		// Two results -> three columns per data row (rank + 2 values).
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		last := strings.Split(lines[len(lines)-1], "\t")
		if len(last) != 3 {
			t.Errorf("%v row has %d columns, want 3", kind, len(last))
		}
	}
	// Writers tolerate empty input.
	if err := WriteNodeSeries(io.Discard, SeriesConnect, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileCurves(io.Discard, nil, 10); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceClassesSumToSensibleWeights(t *testing.T) {
	q := DeviceClasses()
	if len(q.Classes) != 3 {
		t.Fatalf("classes = %d, want 3", len(q.Classes))
	}
	total := 0.0
	prev := -1.0
	for _, c := range q.Classes {
		total += c.Weight
		if c.Value <= prev {
			// Classes are listed from least to most capable.
			t.Errorf("class values not increasing: %v", q.Classes)
		}
		prev = c.Value
	}
	if total <= 0 {
		t.Error("non-positive total weight")
	}
}
