package manetp2p

// One benchmark per table and figure of the paper (§7), plus ablation
// benches for the design choices DESIGN.md calls out. The figure
// benches run scaled-down replications (1 rep, shortened horizon) so
// `go test -bench=.` completes in minutes; cmd/repro regenerates the
// full-fidelity numbers. Each bench reports the figure's headline
// quantity via b.ReportMetric, so the paper-shape comparison is visible
// directly in the bench output.

import (
	"io"
	"testing"

	"manetp2p/internal/aodv"
	"manetp2p/internal/manet"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
)

// benchScenario is the scaled-down figure workload: one replication of
// the paper's Table 2 setup.
func benchScenario(nodes int, alg Algorithm, duration Duration) Scenario {
	sc := DefaultScenario(nodes, alg)
	sc.Replications = 1
	sc.Duration = duration
	sc.SnapshotEvery = 0
	return sc
}

func runScenario(b *testing.B, sc Scenario) *Result {
	b.Helper()
	res, err := Run(sc)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- Tables ---

func BenchmarkTable1Topologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		WriteTable1(io.Discard)
	}
}

func BenchmarkTable2Parameters(b *testing.B) {
	sc := DefaultScenario(50, Regular)
	for i := 0; i < b.N; i++ {
		WriteTable2(io.Discard, sc)
	}
}

// --- Figures 5-6: distance to the file and answers per request ---

func benchFileCurves(b *testing.B, nodes int, duration Duration) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var dist, answers float64
		for _, alg := range Algorithms() {
			sc := benchScenario(nodes, alg, duration)
			res := runScenario(b, sc)
			fc := res.PerFile[0]
			dist += fc.Distance.Mean
			answers += fc.Answers.Mean
		}
		b.ReportMetric(dist/4, "dist_file1")
		b.ReportMetric(answers/4, "answers_file1")
	}
}

func BenchmarkFig5QueryDistance50(b *testing.B)  { benchFileCurves(b, 50, 900*sim.Second) }
func BenchmarkFig6QueryDistance150(b *testing.B) { benchFileCurves(b, 150, 300*sim.Second) }

// --- Figures 7-12: per-node message series ---

func benchNodeSeries(b *testing.B, nodes int, duration Duration, class telemetry.Class) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		perAlg := map[string]float64{}
		for _, alg := range Algorithms() {
			sc := benchScenario(nodes, alg, duration)
			res := runScenario(b, sc)
			perAlg[alg.String()] = res.Totals[class].Mean
		}
		b.ReportMetric(perAlg["Basic"], "basic_msgs/node")
		b.ReportMetric(perAlg["Regular"], "regular_msgs/node")
		b.ReportMetric(perAlg["Random"], "random_msgs/node")
		b.ReportMetric(perAlg["Hybrid"], "hybrid_msgs/node")
	}
}

func BenchmarkFig7Connect50(b *testing.B) {
	benchNodeSeries(b, 50, 900*sim.Second, telemetry.Connect)
}

func BenchmarkFig8Connect150(b *testing.B) {
	benchNodeSeries(b, 150, 300*sim.Second, telemetry.Connect)
}

func BenchmarkFig9Ping50(b *testing.B) {
	benchNodeSeries(b, 50, 900*sim.Second, telemetry.Ping)
}

func BenchmarkFig10Ping150(b *testing.B) {
	benchNodeSeries(b, 150, 300*sim.Second, telemetry.Ping)
}

func BenchmarkFig11Query50(b *testing.B) {
	benchNodeSeries(b, 50, 900*sim.Second, telemetry.Query)
}

func BenchmarkFig12Query150(b *testing.B) {
	benchNodeSeries(b, 150, 300*sim.Second, telemetry.Query)
}

// --- Ablations ---

// BenchmarkAblationDupCache quantifies the paper's controlled-broadcast
// modification: the same Basic workload with and without the duplicate
// cache, comparing radio receive traffic.
func BenchmarkAblationDupCache(b *testing.B) {
	run := func(disable bool) float64 {
		cfg := DefaultScenario(50, Basic)
		cfg.Seed = 11
		net, err := manet.Build(cfg, 0, manet.Options{
			NoQueries: true,
			AODV:      aodv.Config{DisableBcastDupCache: disable},
		})
		if err != nil {
			b.Fatal(err)
		}
		net.Run(600 * sim.Second)
		var rx float64
		for i := 0; i < cfg.NumNodes; i++ {
			rx += float64(net.Medium.Stats(i).RxFrames)
		}
		return rx / float64(cfg.NumNodes)
	}
	for i := 0; i < b.N; i++ {
		with := run(false)
		without := run(true)
		b.ReportMetric(with, "rx/node_cached")
		b.ReportMetric(without, "rx/node_naive")
		b.ReportMetric(without/with, "storm_factor")
	}
}

// BenchmarkAblationExpandingRing isolates improvement #1 of §6.1.3: the
// progressive discovery radius versus Basic's fixed NHOPS, holding the
// retry timer equal.
func BenchmarkAblationExpandingRing(b *testing.B) {
	run := func(alg p2p.Algorithm) float64 {
		cfg := DefaultScenario(50, alg)
		cfg.Seed = 12
		// Disable Regular's backoff so only the radius progression
		// differs: MaxTimer equal to the fixed timer.
		cfg.Params.TimerBasic = 60 * sim.Second
		cfg.Params.TimerInitial = 60 * sim.Second
		cfg.Params.MaxTimer = 60 * sim.Second
		net, err := manet.Build(cfg, 0, manet.Options{NoQueries: true})
		if err != nil {
			b.Fatal(err)
		}
		net.Run(1200 * sim.Second)
		var conn float64
		members := net.Members()
		for _, id := range members {
			conn += float64(net.Collector.Received(id, telemetry.Connect))
		}
		return conn / float64(len(members))
	}
	for i := 0; i < b.N; i++ {
		fixed := run(p2p.Basic)
		ring := run(p2p.Regular)
		b.ReportMetric(fixed, "connect/node_fixed")
		b.ReportMetric(ring, "connect/node_ring")
	}
}

// BenchmarkAblationOneSidedPing isolates improvement #3 of §6.1.3: the
// symmetric algorithms' one-sided keepalive halves ping traffic
// relative to Basic's per-reference probing.
func BenchmarkAblationOneSidedPing(b *testing.B) {
	run := func(alg p2p.Algorithm) float64 {
		cfg := DefaultScenario(50, alg)
		cfg.Seed = 13
		net, err := manet.Build(cfg, 0, manet.Options{NoQueries: true})
		if err != nil {
			b.Fatal(err)
		}
		net.Run(1200 * sim.Second)
		var pings float64
		members := net.Members()
		for _, id := range members {
			pings += float64(net.Collector.Received(id, telemetry.Ping) +
				net.Collector.Received(id, telemetry.Pong))
		}
		return pings / float64(len(members))
	}
	for i := 0; i < b.N; i++ {
		basic := run(p2p.Basic)
		regular := run(p2p.Regular)
		b.ReportMetric(basic, "pingpong/node_basic")
		b.ReportMetric(regular, "pingpong/node_regular")
	}
}

// BenchmarkAblationPeerCache measures the peer-cache extension: connect
// traffic with and without cached unicast reconnects under the paper's
// mobile 50-node scenario.
func BenchmarkAblationPeerCache(b *testing.B) {
	run := func(enabled bool) float64 {
		cfg := DefaultScenario(50, p2p.Regular)
		cfg.Seed = 17
		cfg.Params.PeerCache = p2p.PeerCacheConfig{Enabled: enabled}
		net, err := manet.Build(cfg, 0, manet.Options{NoQueries: true})
		if err != nil {
			b.Fatal(err)
		}
		net.Run(1800 * sim.Second)
		var conn float64
		members := net.Members()
		for _, id := range members {
			conn += float64(net.Collector.Received(id, telemetry.Connect))
		}
		return conn / float64(len(members))
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "connect/node_bcast")
		b.ReportMetric(run(true), "connect/node_cached")
	}
}

// BenchmarkExtDownloadReplication measures the download extension's
// effect: with replication on, later queries find files nearer and more
// often.
func BenchmarkExtDownloadReplication(b *testing.B) {
	run := func(enabled bool) (found, dist float64) {
		sc := benchScenario(50, Regular, 1800*sim.Second)
		sc.Seed = 18
		sc.Params.Download = p2p.DownloadConfig{Enabled: enabled}
		res := runScenario(b, sc)
		total, hits, dsum, dn := 0, 0.0, 0.0, 0
		for _, fc := range res.PerFile {
			total += fc.Requests
			hits += fc.FoundRate * float64(fc.Requests)
			if fc.Distance.N > 0 {
				dsum += fc.Distance.Mean
				dn++
			}
		}
		if total > 0 {
			found = hits / float64(total)
		}
		if dn > 0 {
			dist = dsum / float64(dn)
		}
		return found, dist
	}
	for i := 0; i < b.N; i++ {
		f0, d0 := run(false)
		f1, d1 := run(true)
		b.ReportMetric(f0*100, "found%_plain")
		b.ReportMetric(f1*100, "found%_replicating")
		b.ReportMetric(d0, "dist_plain")
		b.ReportMetric(d1, "dist_replicating")
	}
}

// BenchmarkExtRoutingComparison repeats the routing-protocol study the
// paper bases its AODV choice on: the same Regular-algorithm overlay
// workload over AODV, DSR and plain flooding, comparing total radio
// traffic per node (the study's cost axis).
func BenchmarkExtRoutingComparison(b *testing.B) {
	run := func(kind manet.RoutingKind) float64 {
		cfg := DefaultScenario(50, p2p.Regular)
		cfg.Seed = 21
		cfg.Routing = kind
		net, err := manet.Build(cfg, 0, manet.Options{})
		if err != nil {
			b.Fatal(err)
		}
		net.Run(1200 * sim.Second)
		var rx float64
		for i := 0; i < cfg.NumNodes; i++ {
			rx += float64(net.Medium.Stats(i).RxFrames)
		}
		return rx / float64(cfg.NumNodes)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(manet.RoutingAODV), "rx/node_aodv")
		b.ReportMetric(run(manet.RoutingDSR), "rx/node_dsr")
		b.ReportMetric(run(manet.RoutingFlood), "rx/node_flood")
		b.ReportMetric(run(manet.RoutingDSDV), "rx/node_dsdv")
	}
}

// BenchmarkExtQueryStrategies compares the paper's Gnutella flood
// against k-random-walk search (the §5 scalability debate): per-node
// query traffic and success rate under the same overlay.
func BenchmarkExtQueryStrategies(b *testing.B) {
	run := func(mode p2p.QueryMode) (msgs, found float64) {
		sc := benchScenario(50, Regular, 1200*sim.Second)
		sc.Seed = 31
		sc.Params.QueryMode = mode
		res := runScenario(b, sc)
		total, hits := 0, 0.0
		for _, fc := range res.PerFile {
			total += fc.Requests
			hits += fc.FoundRate * float64(fc.Requests)
		}
		if total > 0 {
			found = hits / float64(total)
		}
		return res.Totals[telemetry.Query].Mean, found
	}
	for i := 0; i < b.N; i++ {
		fm, ff := run(p2p.QueryFlood)
		wm, wf := run(p2p.QueryRandomWalk)
		b.ReportMetric(fm, "qmsgs/node_flood")
		b.ReportMetric(wm, "qmsgs/node_walk")
		b.ReportMetric(ff*100, "found%_flood")
		b.ReportMetric(wf*100, "found%_walk")
	}
}

// BenchmarkAblationRunnerScaling measures the replication runner's
// parallel speedup: the same 8-replication batch with 1 worker versus
// all cores.
func BenchmarkAblationRunnerScaling(b *testing.B) {
	base := DefaultScenario(50, Regular)
	base.Replications = 8
	base.Duration = 600 * sim.Second
	base.SnapshotEvery = 0
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			sc := base
			sc.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := Run(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Microbenchmarks ---
//
// The unit benchmarks of the hot paths (DESIGN §5) live in bench_test.go
// of the package each one times.

func BenchmarkWaypointPos(b *testing.B) {
	sc := DefaultScenario(1, Regular)
	sc.Seed = 3
	sc.MemberFraction = 1
	net, err := manet.Build(sc, 0, manet.Options{NoQueries: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Run(sim.Second)
	}
}
