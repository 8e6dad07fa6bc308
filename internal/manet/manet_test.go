package manet

import (
	"sort"
	"strings"
	"testing"

	"manetp2p/internal/graphs"
	"manetp2p/internal/p2p"
	"manetp2p/internal/radio"
	"manetp2p/internal/sim"
)

func smallConfig(alg p2p.Algorithm, seed int64) Scenario {
	cfg := DefaultScenario(30, alg)
	cfg.Seed = seed
	return cfg
}

// TestConfigValidate covers the rules of the one Scenario.Validate that
// guard Build itself; the root package's TestScenarioValidate and the
// bad-file table in scenario_json_test.go cover the rest.
func TestConfigValidate(t *testing.T) {
	if err := DefaultScenario(50, p2p.Regular).Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
	bads := []func(*Scenario){
		func(c *Scenario) { c.NumNodes = 0 },
		func(c *Scenario) { c.MemberFraction = 0 },
		func(c *Scenario) { c.MemberFraction = 1.5 },
		func(c *Scenario) { c.AreaSide = 0 },
		func(c *Scenario) { c.Range = 0 },
		func(c *Scenario) { c.Churn.MeanDowntime = -1 },
		func(c *Scenario) { c.Params.MaxNConn = 0 },
		func(c *Scenario) { c.Files.NumFiles = 0 },
	}
	for i, mutate := range bads {
		c := DefaultScenario(50, p2p.Regular)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
		if _, err := Build(c, 0, Options{}); err == nil {
			t.Errorf("bad scenario %d built", i)
		}
	}
}

func TestBuildMembership(t *testing.T) {
	cfg := smallConfig(p2p.Regular, 1)
	n, err := Build(cfg, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	members := n.Members()
	want := int(float64(cfg.NumNodes)*cfg.MemberFraction + 0.5)
	if len(members) != want {
		t.Errorf("members = %d, want %d", len(members), want)
	}
	for i, sv := range n.Servents {
		if (sv != nil) != n.IsMember(i) {
			t.Errorf("node %d: servent presence inconsistent with membership", i)
		}
	}
}

func TestIntegrationRegularFormsOverlayAndAnswersQueries(t *testing.T) {
	cfg := smallConfig(p2p.Regular, 2)
	n, err := Build(cfg, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(10 * sim.Minute)
	// Overlay formed.
	connected := 0
	for _, sv := range n.Servents {
		if sv != nil && sv.ConnCount() > 0 {
			connected++
		}
	}
	if connected < len(n.Members())/2 {
		t.Errorf("only %d/%d members connected", connected, len(n.Members()))
	}
	// Queries ran and some found answers.
	reqs := n.Collector.Requests()
	if len(reqs) < 20 {
		t.Fatalf("only %d requests in 10 min", len(reqs))
	}
	found := 0
	for _, r := range reqs {
		if r.Found {
			found++
			if r.MinP2P < 1 {
				t.Errorf("found request with MinP2P %d < 1", r.MinP2P)
			}
		}
	}
	if found == 0 {
		t.Error("no request found its file")
	}
}

func TestIntegrationAllAlgorithmsRun(t *testing.T) {
	for _, alg := range p2p.Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(alg, 3)
			if alg == p2p.Hybrid {
				cfg.Quals = DeviceClasses()
			}
			n, err := Build(cfg, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			n.Run(10 * sim.Minute)
			// Someone received connect traffic.
			total := uint64(0)
			for _, id := range n.Members() {
				total += n.Collector.Received(id, 0)
			}
			if total == 0 {
				t.Error("no connect messages recorded")
			}
		})
	}
}

func TestRoutingSubstrates(t *testing.T) {
	// The overlay must form and answer queries over every routing
	// substrate, not just AODV.
	for _, kind := range Routings() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(p2p.Regular, 10)
			cfg.Routing = kind
			n, err := Build(cfg, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			n.Run(10 * sim.Minute)
			connected := 0
			for _, sv := range n.Servents {
				if sv != nil && sv.ConnCount() > 0 {
					connected++
				}
			}
			if connected == 0 {
				t.Errorf("no overlay connections formed over %v", kind)
			}
			found := false
			for _, r := range n.Collector.Requests() {
				if r.Found {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no query answered over %v", kind)
			}
		})
	}
}

func TestDeterministicReplication(t *testing.T) {
	run := func() (uint64, int) {
		cfg := smallConfig(p2p.Random, 7)
		n, err := Build(cfg, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(5 * sim.Minute)
		var msgs uint64
		for i := 0; i < cfg.NumNodes; i++ {
			msgs += n.Medium.Stats(i).RxFrames
		}
		return msgs, len(n.Collector.Requests())
	}
	m1, r1 := run()
	m2, r2 := run()
	if m1 != m2 || r1 != r2 {
		t.Errorf("same seed diverged: frames %d vs %d, requests %d vs %d", m1, m2, r1, r2)
	}
}

func TestChurnNodesLeaveAndReturn(t *testing.T) {
	cfg := smallConfig(p2p.Regular, 4)
	cfg.Churn = ChurnConfig{MeanUptime: 2 * sim.Minute, MeanDowntime: 30 * sim.Second}
	n, err := Build(cfg, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawDown := false
	for i := 0; i < 30; i++ {
		n.Run(time30())
		if n.AliveMembers() < len(n.Members()) {
			sawDown = true
		}
	}
	if !sawDown {
		t.Error("churn never took a member down")
	}
	// The overlay must keep functioning: connections exist at the end.
	connected := 0
	for _, sv := range n.Servents {
		if sv != nil && sv.Joined() && sv.ConnCount() > 0 {
			connected++
		}
	}
	if connected == 0 {
		t.Error("overlay collapsed under churn")
	}
}

func time30() sim.Time { return 30 * sim.Second }

func TestEnergyDepletionKillsPermanently(t *testing.T) {
	cfg := smallConfig(p2p.Basic, 5) // Basic floods hardest
	cfg.Energy = radio.EnergyConfig{Capacity: 0.05, TxPerFrame: 1e-4, RxPerFrame: 1e-4, TxPerByte: 1e-6, RxPerByte: 1e-6}
	n, err := Build(cfg, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(30 * sim.Minute)
	deaths := 0
	for i := 0; i < cfg.NumNodes; i++ {
		if n.dead(i) {
			deaths++
			if n.Medium.Up(i) {
				t.Errorf("dead node %d still on air", i)
			}
			if sv := n.Servents[i]; sv != nil && sv.Joined() {
				t.Errorf("dead node %d still joined", i)
			}
		}
	}
	if deaths == 0 {
		t.Error("no battery death under tiny budget with Basic flooding")
	}
}

func TestStationaryMobilityHoldsPositions(t *testing.T) {
	cfg := smallConfig(p2p.Regular, 6)
	cfg.Mobility = MobilityStationary
	n, err := Build(cfg, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float64, cfg.NumNodes)
	for i := range before {
		before[i] = n.Medium.Pos(i).X
	}
	n.Run(5 * sim.Minute)
	for i := range before {
		if n.Medium.Pos(i).X != before[i] {
			t.Fatalf("stationary node %d moved", i)
		}
	}
}

func TestOverlayAdjacencyMutual(t *testing.T) {
	cfg := smallConfig(p2p.Regular, 8)
	n, err := Build(cfg, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(5 * sim.Minute)
	adj := n.OverlayAdjacency()
	for i, nbrs := range adj {
		for _, j := range nbrs {
			mutual := false
			for _, k := range adj[j] {
				if k == i {
					mutual = true
					break
				}
			}
			if !mutual {
				t.Errorf("adjacency not mutual: %d->%d", i, j)
			}
		}
	}
}

// The routing table is read through String and ParseRouting alike, and
// they must agree on the four paper-era names.
func TestRoutingKindStrings(t *testing.T) {
	want := map[RoutingKind]string{
		RoutingAODV: "AODV", RoutingDSR: "DSR", RoutingFlood: "Flood", RoutingDSDV: "DSDV",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("String() = %q, want %q", k.String(), name)
		}
		if got, err := ParseRouting(strings.ToLower(name)); err != nil || got != k {
			t.Errorf("ParseRouting(%q) = %v, %v; want %v", strings.ToLower(name), got, err, k)
		}
	}
	if _, err := ParseRouting("olsr"); err == nil || !strings.Contains(err.Error(), "aodv|dsr|flood|dsdv") {
		t.Errorf(`ParseRouting("olsr") = %v, want an error listing the valid names`, err)
	}
	if got := RoutingKind(7).String(); got != "routing(7)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestQualifierClasses(t *testing.T) {
	cfg := smallConfig(p2p.Hybrid, 9)
	cfg.NumNodes = 200
	cfg.Quals = DeviceClasses()
	n, err := Build(cfg, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for _, sv := range n.Servents {
		if sv != nil {
			counts[sv.Qualifier()]++
		}
	}
	if len(counts) != 3 {
		t.Fatalf("distinct qualifiers = %d, want 3 classes", len(counts))
	}
	if counts[0.2] <= counts[0.9] {
		t.Errorf("phone class (%d) should outnumber notebook class (%d)", counts[0.2], counts[0.9])
	}
}

// TestAppendOverlayAdjacencyMatchesNaive pins the allocation-free fill
// against the reference OverlayAdjacency on a live network: the same
// nodes, the same neighbor sets. Rows are compared as sets because
// AppendOverlayAdjacency emits peers in map order while the naive path
// sorts.
func TestAppendOverlayAdjacencyMatchesNaive(t *testing.T) {
	for _, alg := range p2p.Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(alg, 11)
			n, err := Build(cfg, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			n.Run(5 * sim.Minute)
			want := n.OverlayAdjacency()
			var sc graphs.Scratch
			n.AppendOverlayAdjacency(&sc)
			if sc.NumNodes() != len(want) {
				t.Fatalf("NumNodes = %d, want %d", sc.NumNodes(), len(want))
			}
			for i, row := range want {
				got := append([]int32(nil), sc.Row(i)...)
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				if len(got) != len(row) {
					t.Fatalf("node %d: degree %d, want %d", i, len(got), len(row))
				}
				for j, p := range row {
					if int(got[j]) != p {
						t.Fatalf("node %d: neighbors %v, want %v", i, got, row)
					}
				}
			}
		})
	}
}

// TestAnalyzerMatchesNaiveOnLiveNetwork checks the whole snapshot path
// end to end: the Analyzer over AppendOverlayAdjacency must reproduce
// the naive graphs.Graph metrics bit for bit, which is what keeps the
// golden fixtures byte-identical.
func TestAnalyzerMatchesNaiveOnLiveNetwork(t *testing.T) {
	for _, alg := range p2p.Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(alg, 12)
			n, err := Build(cfg, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			n.Run(10 * sim.Minute)
			g := graphs.New(n.OverlayAdjacency())
			var an graphs.Analyzer
			n.AppendOverlayAdjacency(&an.S)
			m := an.Analyze(n.IsMember)
			if got, want := m.Clustering, g.ClusteringCoefficient(); got != want {
				t.Errorf("Clustering = %v, want %v", got, want)
			}
			wantPath, wantPairs := g.CharacteristicPathLength()
			if m.PathLength != wantPath || m.Pairs != wantPairs {
				t.Errorf("PathLength = (%v, %d), want (%v, %d)", m.PathLength, m.Pairs, wantPath, wantPairs)
			}
			if got, want := m.Largest, g.LargestComponentFraction(n.IsMember); got != want {
				t.Errorf("Largest = %v, want %v", got, want)
			}
			if got, want := m.Edges, g.NumEdges(); got != want {
				t.Errorf("Edges = %d, want %d", got, want)
			}
		})
	}
}

// TestMembersCached pins the Members contract: membership is fixed at
// Build, so repeated calls return the same slice instead of
// reallocating, and the ids come sorted.
func TestMembersCached(t *testing.T) {
	n, err := Build(smallConfig(p2p.Regular, 13), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := n.Members(), n.Members()
	if len(a) == 0 {
		t.Fatal("no members")
	}
	if &a[0] != &b[0] {
		t.Error("Members reallocated between calls")
	}
	if !sort.IntsAreSorted(a) {
		t.Errorf("Members not in id order: %v", a)
	}
}
