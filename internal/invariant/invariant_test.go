// External test package: the checker is validated against full manet
// networks, and manet itself imports invariant.
package invariant_test

import (
	"strings"
	"testing"

	"manetp2p/internal/graphs"
	"manetp2p/internal/invariant"
	"manetp2p/internal/manet"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
	"manetp2p/internal/workload"
)

// testConfig builds a dense-enough network that overlay links actually
// form, with the checker enabled.
func testConfig(seed int64, alg p2p.Algorithm) manet.Scenario {
	cfg := manet.DefaultScenario(25, alg)
	cfg.Seed = seed
	cfg.AreaSide = 60
	cfg.Invariants = &invariant.Config{Enabled: true}
	return cfg
}

// noQueries is how every test here but the workload one builds: the
// overlay rules need no query traffic.
var noQueries = manet.Options{NoQueries: true}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  invariant.Config
		ok   bool
	}{
		{"zero", invariant.Config{}, true},
		{"enabled defaults", invariant.Config{Enabled: true}, true},
		{"explicit", invariant.Config{Enabled: true, Every: 10 * sim.Second, Grace: sim.Second, MaxViolations: 5}, true},
		{"negative every", invariant.Config{Every: -1}, false},
		{"negative grace", invariant.Config{Grace: -1}, false},
		{"negative cap", invariant.Config{MaxViolations: -1}, false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestCleanNetworksPassAllAlgorithms(t *testing.T) {
	for _, alg := range p2p.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			net, err := manet.Build(testConfig(7, alg), 0, noQueries)
			if err != nil {
				t.Fatal(err)
			}
			net.Run(600 * sim.Second)
			net.Checker.Finalize()
			if !net.Checker.OK() {
				for _, v := range net.Checker.Violations() {
					t.Errorf("violation: %s", v.String())
				}
				t.Fatalf("clean %v run: %d violations", alg, net.Checker.Total())
			}
		})
	}
}

// TestDetectsCorruptLedgerSlot writes over the query ledger's slot for
// one query, as a stray write would: the slot names a second record of
// the same key, so the first, which holds the servents that handled the
// query, is lost. The periodic pass leaves the ledger alone; Finalize
// must report the lost record.
func TestDetectsCorruptLedgerSlot(t *testing.T) {
	net, err := manet.Build(testConfig(4, p2p.Regular), 0, manet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(600 * sim.Second)
	l := net.Checker.LedgerForTest()
	if l.Len() == 0 {
		t.Fatal("no query reached the ledger in 600 s; scenario too sparse for the test")
	}
	k := l.Key(0)
	slot, _ := l.Find(k)
	l.Insert(k, slot)

	net.Checker.Check()
	if !net.Checker.OK() {
		t.Fatalf("a periodic pass reported %d violations; the ledger is Finalize's", net.Checker.Total())
	}
	net.Checker.Finalize()
	found := false
	for _, v := range net.Checker.Violations() {
		found = found || v.Layer == "p2p" && v.Rule == "table-reach" && strings.Contains(v.Detail, "query ledger")
		t.Logf("violation: %s", v.String())
	}
	if !found {
		t.Fatal("the lost ledger record was not reported as p2p/table-reach")
	}
}

// TestDetectsSuppressedClose seeds the canonical protocol mutation —
// one servent never executes its side of closeConn toward a chosen peer
// — and requires the checker to flag the resulting one-sided link with
// the right node ids and a sim time after the mutation.
func TestDetectsSuppressedClose(t *testing.T) {
	net, err := manet.Build(testConfig(3, p2p.Regular), 0, noQueries)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(300 * sim.Second)

	// Find a live overlay link (i, j).
	var view p2p.View
	i, j := -1, -1
	for idx, sv := range net.Servents {
		if sv == nil || !sv.Joined() {
			continue
		}
		sv.Inspect(&view)
		if len(view.Conns) > 0 {
			i, j = idx, view.Conns[0].Peer
			break
		}
	}
	if i < 0 {
		t.Fatal("no overlay link formed in 300 s; scenario too sparse for the test")
	}

	mutatedAt := net.Sim.Now()
	net.Servents[i].SkipCloseForTest(j)
	net.ForceDown(j) // j leaves; i can never tear down its side
	net.Run(400 * sim.Second)
	net.Checker.Finalize()

	if net.Checker.OK() {
		t.Fatalf("mutation not detected: closeConn(%d->%d) suppressed, no violations", i, j)
	}
	found := false
	for _, v := range net.Checker.Violations() {
		if v.Node == i && v.Peer == j && v.At > mutatedAt {
			found = true
			if v.String() == "" || !strings.Contains(v.String(), "node=") {
				t.Errorf("violation renders without node id: %q", v.String())
			}
		}
	}
	if !found {
		for _, v := range net.Checker.Violations() {
			t.Logf("violation: %s", v.String())
		}
		t.Fatalf("no violation names the mutated pair node=%d peer=%d after t=%v", i, j, mutatedAt)
	}
}

// TestWorkloadLedgerDrift seeds the canonical workload-accounting
// mutation — an in-flight count bumped with no matching query — and
// requires the checker's conservation rules to flag it. A clean
// workload-driven run of the same scenario must stay green, so the
// rules themselves are also exercised against honest ledgers.
func TestWorkloadLedgerDrift(t *testing.T) {
	build := func() *manet.Network {
		cfg := testConfig(5, p2p.Regular)
		cfg.Workload = &workload.Plan{
			Arrival:  workload.Arrival{Process: workload.Poisson, Rate: 0.1},
			Sessions: workload.DefaultSessions(),
		}
		net, err := manet.Build(cfg, 0, manet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}

	clean := build()
	clean.Run(600 * sim.Second)
	clean.Checker.Finalize()
	if !clean.Checker.OK() {
		for _, v := range clean.Checker.Violations() {
			t.Errorf("violation: %s", v.String())
		}
		t.Fatal("clean workload-driven run reported violations")
	}

	drifted := build()
	drifted.Run(300 * sim.Second)
	drifted.Demand.DriftForTest()
	drifted.Run(600 * sim.Second)
	drifted.Checker.Finalize()
	if drifted.Checker.OK() {
		t.Fatal("in-flight drift injected but no workload violation reported")
	}
	found := false
	for _, v := range drifted.Checker.Violations() {
		if strings.Contains(v.String(), "workload") {
			found = true
		}
	}
	if !found {
		for _, v := range drifted.Checker.Violations() {
			t.Logf("violation: %s", v.String())
		}
		t.Fatal("no violation names the workload layer")
	}
}

// TestCheckerDrawsNoRandomness: enabling the checker must not perturb
// the simulation it observes — the overlay it leaves behind is
// identical to an unchecked run with the same seed.
func TestCheckerDrawsNoRandomness(t *testing.T) {
	run := func(check bool) []string {
		cfg := testConfig(11, p2p.Hybrid)
		cfg.Invariants.Enabled = check
		net, err := manet.Build(cfg, 0, noQueries)
		if err != nil {
			t.Fatal(err)
		}
		net.Run(600 * sim.Second)
		var v p2p.View
		out := make([]string, 0, len(net.Servents))
		for _, sv := range net.Servents {
			if sv == nil {
				continue
			}
			sv.Inspect(&v)
			line := sv.Joined()
			s := make([]byte, 0, 64)
			if line {
				s = append(s, 'J')
			}
			for _, c := range v.Conns {
				s = append(s, byte('0'+c.Peer/10), byte('0'+c.Peer%10), ',')
			}
			out = append(out, string(s))
		}
		return out
	}
	with, without := run(true), run(false)
	if len(with) != len(without) {
		t.Fatalf("servent count differs: %d vs %d", len(with), len(without))
	}
	for k := range with {
		if with[k] != without[k] {
			t.Fatalf("overlay state diverges at servent %d: checked=%q unchecked=%q", k, with[k], without[k])
		}
	}
}

// TestDetectsCorruptAdjacency seeds the canonical connectivity
// mutation: an Adjacency feed that reports a ring over every node,
// joined or not. The overlay rules must flag it — ghost degrees on
// non-joined nodes, degrees past the inspected connection counts, and
// (for symmetric algorithms) broken edge conservation. A clean feed on
// the same network must stay green, which
// TestCleanNetworksPassAllAlgorithms already covers via the wired-in
// checker.
func TestDetectsCorruptAdjacency(t *testing.T) {
	cfg := testConfig(5, p2p.Regular)
	cfg.Invariants.Enabled = false // standalone checker below
	net, err := manet.Build(cfg, 0, noQueries)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(300 * sim.Second)

	chk := invariant.New(invariant.Config{Enabled: true}, invariant.Target{
		Sim:       net.Sim,
		Medium:    net.Medium,
		Collector: net.Collector,
		Servents:  net.Servents,
		Algorithm: cfg.Algorithm,
		Params:    cfg.Params,
		Adjacency: func(sc *graphs.Scratch) {
			n := len(net.Servents)
			sc.Reset(n)
			for i := 0; i < n; i++ {
				sc.AppendNeighbor((i + 1) % n)
				sc.EndRow()
			}
		},
	})
	chk.Check()

	if chk.OK() {
		t.Fatal("corrupt adjacency feed not detected")
	}
	rules := map[string]bool{}
	for _, v := range chk.Violations() {
		if v.Layer == "overlay" {
			rules[v.Rule] = true
		}
	}
	if len(rules) == 0 {
		for _, v := range chk.Violations() {
			t.Logf("violation: %s", v.String())
		}
		t.Fatal("no violation on the overlay layer")
	}
	if !rules["adjacency-ghost"] {
		t.Errorf("ghost degree on non-joined nodes not flagged; overlay rules hit: %v", rules)
	}
}

// TestDetectsHealthRegression seeds the canonical health-telemetry
// mutation — a sample recorded out of time order whose cumulative
// receive snapshot also rolls backwards — and requires the
// health-monotonic rule to flag both regressions. A run with honestly
// sampled health telemetry must stay green, which the fault-regime
// scenarios exercised by the root package's tests already cover.
func TestDetectsHealthRegression(t *testing.T) {
	cfg := testConfig(9, p2p.Regular)
	cfg.Invariants.Enabled = false // standalone checker below
	net, err := manet.Build(cfg, 0, noQueries)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(300 * sim.Second)

	good := telemetry.HealthSample{At: 100 * sim.Second, LargestComp: 1, Links: 4}
	good.Received[telemetry.Connect] = 7
	bad := telemetry.HealthSample{At: 50 * sim.Second, LargestComp: 1, Links: 4}
	bad.Received[telemetry.Connect] = 3
	net.Collector.RecordHealth(good)
	net.Collector.RecordHealth(bad)

	chk := invariant.New(invariant.Config{Enabled: true}, invariant.Target{
		Sim:       net.Sim,
		Medium:    net.Medium,
		Collector: net.Collector,
		Servents:  net.Servents,
		Algorithm: cfg.Algorithm,
		Params:    cfg.Params,
	})
	chk.Check()

	hits := 0
	for _, v := range chk.Violations() {
		if v.Layer == "metrics" && v.Rule == "health-monotonic" {
			hits++
		}
	}
	if hits != 2 {
		for _, v := range chk.Violations() {
			t.Logf("violation: %s", v.String())
		}
		t.Fatalf("health-monotonic violations = %d, want 2 (time order + counter rollback)", hits)
	}

	// Appending a clean successor sample must not re-flag the already
	// reported regression: only new samples are examined per pass.
	next := telemetry.HealthSample{At: 200 * sim.Second, LargestComp: 1, Links: 4}
	next.Received[telemetry.Connect] = 9
	net.Collector.RecordHealth(next)
	before := len(chk.Violations())
	chk.Check()
	for _, v := range chk.Violations()[before:] {
		if v.Rule == "health-monotonic" {
			t.Errorf("clean successor sample flagged: %s", v.String())
		}
	}
}
