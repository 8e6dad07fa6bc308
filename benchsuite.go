package manetp2p

// The tracked benchmark suite: the tier-1 benchmarks whose trajectory is
// recorded machine-readably (BENCH_<n>.json) by cmd/bench on every perf
// PR. The functions live here, in a non-test file, so that both `go test
// -bench` (via the delegating Benchmark* wrappers in bench_test.go) and
// the cmd/bench binary (via testing.Benchmark) run the identical code.

import (
	"testing"

	"manetp2p/internal/aodv"
	"manetp2p/internal/flood"
	"manetp2p/internal/geom"
	"manetp2p/internal/graphs"
	"manetp2p/internal/manet"
	"manetp2p/internal/netif"
	"manetp2p/internal/p2p"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
	"manetp2p/internal/workload"
)

// BenchSpec names one tracked benchmark.
type BenchSpec struct {
	Name string
	Fn   func(*testing.B)
}

// TrackedBenchmarks returns the benchmarks recorded in BENCH_<n>.json,
// cheapest first.
func TrackedBenchmarks() []BenchSpec {
	return []BenchSpec{
		{Name: "TelemetryProbe", Fn: benchTelemetryProbe},
		{Name: "SimEventQueue", Fn: benchSimEventQueue},
		{Name: "GridNear", Fn: benchGridNear},
		{Name: "RadioBroadcast", Fn: benchRadioBroadcast},
		{Name: "DupCheck", Fn: benchDupCheck},
		{Name: "AODVDiscovery", Fn: benchAODVDiscovery},
		{Name: "BcastRelay", Fn: benchBcastRelay},
		{Name: "ServentSend", Fn: benchServentSend},
		{Name: "QueryFlood", Fn: benchQueryFlood},
		{Name: "WorkloadArrivals", Fn: benchWorkloadArrivals},
		{Name: "OverlaySnapshot", Fn: benchOverlaySnapshot},
		{Name: "FullReplication", Fn: func(b *testing.B) { benchFullReplication(b, false) }},
		{Name: "FullReplicationChecked", Fn: func(b *testing.B) { benchFullReplication(b, true) }},
	}
}

// benchTelemetryProbe measures the telemetry plane's record hot path —
// Collector.Recv, which the servent layer hits on every received
// message. The contract is 0 allocs/op: cmd/bench gates AllocsPerOp for
// this benchmark at exactly zero.
func benchTelemetryProbe(b *testing.B) {
	col := telemetry.NewCollector(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Recv(i&7, telemetry.Query)
	}
}

// benchSimEventQueue measures the simulator's schedule+fire hot path.
func benchSimEventQueue(b *testing.B) {
	s := sim.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(sim.Time(i%1000)*sim.Millisecond, func() {})
		if s.Pending() > 1024 {
			s.Run(sim.MaxTime)
		}
	}
	s.Run(sim.MaxTime)
}

// benchGridNear measures one range query on the spatial index.
func benchGridNear(b *testing.B) {
	arena := geom.Rect{W: 100, H: 100}
	g := geom.NewGrid(arena, 10, 150)
	s := sim.New(2)
	rng := s.NewRand()
	for i := 0; i < 150; i++ {
		g.Insert(i, arena.RandomPoint(rng))
	}
	buf := make([]int, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Near(buf[:0], arena.RandomPoint(rng), 10, -1)
	}
}

// benchRadioBroadcast measures the medium's whole reception path with
// nothing above it: one broadcast heard by 8 neighbours, through Send
// (neighbour list, one stored frame, 8 wheel pushes) and the kernel's
// merged run loop into Fire and 8 empty receive callbacks. One neighbour
// moves before every 16th broadcast, so the sender's list is refilled
// from the grid at the rate a run refills it (one fill per 19 broadcasts
// measured on the 150-node cell, one per 5–7 on the sparse ones) instead
// of staying warm for the whole benchmark; GridNear times the fill's
// query on its own. The contract is 0 allocs/op once the slabs are warm:
// cmd/bench gates it at zero.
func benchRadioBroadcast(b *testing.B) {
	const neighbours = 8
	s := sim.New(3)
	med, err := radio.NewMedium(s, radio.Config{
		Arena: geom.Rect{W: 50, H: 50}, Range: 10, NumNodes: neighbours + 1,
		Latency: 2 * sim.Millisecond, Jitter: sim.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	heard := 0
	med.Join(0, geom.Point{X: 25, Y: 25}, func(*radio.Frame) {})
	for n := 1; n <= neighbours; n++ {
		med.Join(n, geom.Point{X: 21 + float64(n), Y: 28}, func(*radio.Frame) { heard++ })
	}
	f := radio.Frame{Src: 0, Dst: radio.BroadcastAddr, Size: 64, Payload: netif.Packet{Kind: netif.PktBcast, Msg: netif.TestMsg(1)}}
	for i := 0; i < 64; i++ { // warm the rec and frame slabs
		med.Send(f)
	}
	s.Run(sim.MaxTime)
	heard = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&15 == 0 {
			med.SetPos(1, geom.Point{X: 22, Y: 28 + float64(i>>4&1)})
		}
		med.Send(f)
		s.Run(sim.MaxTime)
	}
	if heard != neighbours*b.N {
		b.Fatalf("%d receptions for %d broadcasts, want %d each", heard, b.N, neighbours)
	}
}

// benchDupCheck measures the duplicate test every radio reception makes,
// in the order a simulation makes them: one flood's key is tested at
// each of 150 nodes — a first arrival and three duplicates — then the
// next flood's, 10 ms later, so 3000 floods are live at any moment and
// every mark made expires inside the timed region. The index reaches its
// steady-state size before the timer starts; the contract from there is
// 0 allocs/op, and cmd/bench gates it at zero.
func benchDupCheck(b *testing.B) {
	const (
		nodes   = 150
		dups    = 3
		timeout = 30 * sim.Second
		gap     = 10 * sim.Millisecond
	)
	s := sim.New(5)
	pl := route.NewPlane(s, nodes)
	caches := make([]*route.DupCache, nodes)
	for n := range caches {
		caches[n] = route.NewDupCache(route.NewCore(n, pl), route.CacheConfig{Timeout: timeout})
	}
	firsts, hits := 0, 0
	flood := func(i int) {
		k := route.Key{Origin: i % nodes, ID: uint32(i)}
		for _, dc := range caches {
			for d := 0; d <= dups; d++ {
				if dc.Mark(k) {
					hits++
				} else {
					firsts++
				}
			}
		}
		s.Run(s.Now() + gap)
	}
	warm := 2 * int(timeout/gap)
	for i := 0; i < warm; i++ {
		flood(i)
	}
	firsts, hits = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flood(warm + i)
	}
	if firsts != nodes*b.N || hits != dups*nodes*b.N {
		b.Fatalf("%d floods: %d first arrivals and %d duplicates, want %d and %d", b.N, firsts, hits, nodes*b.N, dups*nodes*b.N)
	}
}

// benchAODVDiscovery measures one cold route discovery over a 10-hop
// chain.
func benchAODVDiscovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := sim.New(int64(i))
		med, err := radio.NewMedium(s, radio.Config{
			Arena: geom.Rect{W: 200, H: 50}, Range: 10, NumNodes: 11,
			Latency: 2 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		routers := make([]*aodv.Router, 11)
		pl := route.NewPlane(s, 11)
		delivered := false
		for n := 0; n < 11; n++ {
			routers[n] = aodv.NewRouter(n, pl, med, aodv.Config{})
			med.Join(n, geom.Point{X: 5 + 8*float64(n), Y: 25}, routers[n].HandleFrame)
		}
		routers[10].OnUnicast(func(aodv.Delivery) { delivered = true })
		b.StartTimer()
		routers[0].Send(10, 64, netif.TestMsg(1))
		s.Run(30 * sim.Second)
		if !delivered {
			b.Fatal("discovery failed")
		}
	}
}

// benchBcastRelay measures the shared controlled-broadcast relay path
// (route.Bcaster, used by all four routing substrates): one TTL-bounded
// broadcast flooded down a 16-node line, including every relay
// re-transmission and duplicate-cache suppression along the way. The
// network persists across iterations, so the duplicate caches work at
// steady state and their pruning cost is included.
func benchBcastRelay(b *testing.B) {
	const nodes = 16
	s := sim.New(7)
	med, err := radio.NewMedium(s, radio.Config{
		Arena: geom.Rect{W: 200, H: 50}, Range: 10, NumNodes: nodes,
		Latency: 2 * sim.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	routers := make([]*flood.Router, nodes)
	pl := route.NewPlane(s, nodes)
	for n := 0; n < nodes; n++ {
		routers[n] = flood.NewRouter(n, pl, med, flood.Config{})
		med.Join(n, geom.Point{X: 5 + 8*float64(n), Y: 25}, routers[n].HandleFrame)
	}
	delivered := 0
	routers[nodes-1].OnBroadcast(func(netif.Delivery) { delivered++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routers[0].Broadcast(nodes-1, 64, netif.TestMsg(uint32(i)))
		s.Run(sim.MaxTime)
	}
	if delivered != b.N {
		b.Fatalf("far end delivered %d of %d broadcasts", delivered, b.N)
	}
}

// benchServentSend measures the overlay unicast send hot path between
// two linked servents: the kind-indexed size lookup, the router
// handoff, the radio round trip and the receive-side classification —
// the exact journey every keepalive, handshake and query message makes.
// The contract is 0 allocs/op once warm: cmd/bench gates it at zero.
func benchServentSend(b *testing.B) {
	s := sim.New(11)
	med, err := radio.NewMedium(s, radio.Config{
		Arena: geom.Rect{W: 50, H: 50}, Range: 10, NumNodes: 2,
		Latency: 2 * sim.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	par := p2p.DefaultParams()
	col := telemetry.NewCollector(2)
	svs := make([]*p2p.Servent, 2)
	pl := route.NewPlane(s, 2)
	for n := 0; n < 2; n++ {
		rt := flood.NewRouter(n, pl, med, flood.Config{})
		med.Join(n, geom.Point{X: 10 + 5*float64(n), Y: 25}, rt.HandleFrame)
		sv := p2p.NewServent(n, s, rt, par, p2p.Regular, p2p.Options{
			Collector: col, RNG: s.NewRand(), NoQueries: true, NoEstablish: true,
		})
		rt.OnUnicast(sv.HandleUnicast)
		rt.OnBroadcast(sv.HandleBroadcast)
		svs[n] = sv
		sv.Join()
	}
	p2p.BenchLink(svs[0], svs[1])
	for i := 0; i < 64; i++ { // warm the event pool, dup caches, map buckets
		svs[0].BenchSend(1)
		s.Run(s.Now() + 10*sim.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svs[0].BenchSend(1)
		s.Run(s.Now() + 10*sim.Millisecond)
	}
	if got := col.Received(1, telemetry.Pong); got == 0 {
		b.Fatal("no messages delivered")
	}
}

// benchQueryFlood measures one Gnutella-style query flooded down an
// 8-servent overlay chain: per-hop duplicate suppression, the
// forwarding fan-out, the query hit unicast back from the far-end
// holder, and the requester's answer accounting.
func benchQueryFlood(b *testing.B) {
	const nodes = 8
	s := sim.New(12)
	med, err := radio.NewMedium(s, radio.Config{
		Arena: geom.Rect{W: 200, H: 50}, Range: 10, NumNodes: nodes,
		Latency: 2 * sim.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	par := p2p.DefaultParams()
	par.PingInterval = 1 << 55
	par.QueryTTL = nodes // let the flood span the whole chain
	col := telemetry.NewCollector(nodes)
	svs := make([]*p2p.Servent, nodes)
	pl := route.NewPlane(s, nodes)
	for n := 0; n < nodes; n++ {
		rt := flood.NewRouter(n, pl, med, flood.Config{})
		med.Join(n, geom.Point{X: 5 + 8*float64(n), Y: 25}, rt.HandleFrame)
		sv := p2p.NewServent(n, s, rt, par, p2p.Regular, p2p.Options{
			Files:     []bool{n == nodes-1}, // only the far end holds file 0
			Collector: col, RNG: s.NewRand(), NoQueries: true, NoEstablish: true,
		})
		rt.OnUnicast(sv.HandleUnicast)
		rt.OnBroadcast(sv.HandleBroadcast)
		svs[n] = sv
		sv.Join()
	}
	for n := 0; n < nodes-1; n++ {
		p2p.BenchLink(svs[n], svs[n+1])
	}
	run := func() {
		svs[0].BenchQuery(0)
		s.Run(s.Now() + 200*sim.Millisecond)
		if svs[0].BenchAnswers() != 1 {
			b.Fatalf("query collected %d answers, want 1", svs[0].BenchAnswers())
		}
		for _, sv := range svs {
			sv.BenchResetQuery()
		}
	}
	for i := 0; i < 8; i++ { // warm pools and caches before timing
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// benchWorkloadArrivals measures the workload engine's per-query hot
// path — one NextGap draw plus one PickFile draw — under the busiest
// configuration (bursty arrivals, rotating Zipf popularity, session
// classes, an active flash-crowd phase). The engine is called once per
// query per servent for the whole horizon, so this path must stay at
// zero allocations per operation.
func benchWorkloadArrivals(b *testing.B) {
	plan := workload.Plan{
		Arrival:    workload.Arrival{Process: workload.OnOff, Rate: 0.2},
		Popularity: workload.Popularity{Skew: 1.2, DriftPerHour: -0.4, RotateEvery: 120 * sim.Second},
		Sessions:   workload.DefaultSessions(),
		Phases: []workload.Phase{
			{Name: "flash", Start: 0, RateScale: 3, HotFiles: 3, HotBoost: 0.8},
		},
	}
	s := sim.New(1)
	e := workload.New(s, s.NewRand(), plan, 50, 20, nil)
	held := make([]bool, 20)
	held[3] = true
	e.NextGap(0) // cross the phase transition before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.NextGap(i % 50)
		e.PickFile(i%50, held)
	}
}

// benchSink keeps the compiler from eliding benchmarked metric math.
var benchSink float64

// benchSnapshotNetwork builds the shared overlay-snapshot workload: a
// 150-node Regular overlay run to steady state, the densest
// configuration the paper's snapshot ticker faces.
func benchSnapshotNetwork(b *testing.B) *manet.Network {
	cfg := manet.DefaultConfig(150, p2p.Regular)
	cfg.Seed = 42
	cfg.NoQueries = true
	net, err := manet.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	net.Run(900 * sim.Second)
	return net
}

// benchOverlaySnapshot measures one full overlay snapshot through the
// analytics engine — adjacency fill plus clustering, pathlength,
// components and edge count — exactly what the SnapshotEvery ticker and
// the health sampler run. Must report 0 allocs/op at steady state.
func benchOverlaySnapshot(b *testing.B) {
	net := benchSnapshotNetwork(b)
	an := new(graphs.Analyzer)
	isMember := net.IsMember
	net.AppendOverlayAdjacency(&an.S)
	an.Analyze(isMember) // warm the scratch before timing
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		net.AppendOverlayAdjacency(&an.S)
		m := an.Analyze(isMember)
		sink += m.Clustering + m.PathLength + m.Largest + float64(m.Edges)
	}
	benchSink = sink
}

// fullReplicationSeeds is the fixed seed set benchFullReplication cycles
// through, so the work timed is the same whatever b.N the testing
// package settles on (a replication's cost varies ±15 % with its seed).
var fullReplicationSeeds = [...]int64{1, 2, 3, 4}

// benchFullReplication measures one end-to-end paper replication
// (50 nodes, 3600 s, Regular): the unit of work the runner parallelizes.
// With checked, the runtime invariant checker is armed at its default
// 30 s sweep — the delta against the unchecked bench is the checker's
// whole cost (EXPERIMENTS.md quotes it).
func benchFullReplication(b *testing.B, checked bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := manet.DefaultConfig(50, p2p.Regular)
		cfg.Seed = fullReplicationSeeds[i%len(fullReplicationSeeds)]
		cfg.Invariants.Enabled = checked
		net, err := manet.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		net.Run(3600 * sim.Second)
		if checked {
			net.Checker.Finalize()
			if !net.Checker.OK() {
				b.Fatalf("invariant violations during bench: %d", net.Checker.Total())
			}
		}
	}
}
