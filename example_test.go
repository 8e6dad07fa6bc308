package manetp2p_test

import (
	"fmt"
	"os"

	"manetp2p"
	"manetp2p/internal/graphs"
	"manetp2p/internal/p2p"
	"manetp2p/internal/telemetry"
)

// The default scenario is Table 2 of the paper: 100 m × 100 m arena,
// 10 m radio range, 75% of nodes in the overlay, 3600 s, 33 runs.
func ExampleDefaultScenario() {
	sc := manetp2p.DefaultScenario(50, manetp2p.Regular)
	fmt.Println(sc.Name, sc.NumNodes, sc.Replications, sc.Params.MaxNConn, sc.Params.QueryTTL)
	// Output: Regular-50 50 33 3 6
}

// Run executes a scenario's replications concurrently and aggregates
// the paper's metrics.
func ExampleRun() {
	sc := manetp2p.DefaultScenario(20, manetp2p.Basic)
	sc.Duration = manetp2p.Seconds(120)
	sc.Replications = 1
	sc.SnapshotEvery = 0
	res, err := manetp2p.Run(sc)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(res.PerFile), len(res.ConnectSeries))
	// Output: 20 15
}

// NewSimulation gives step-by-step control over a single replication.
func ExampleNewSimulation() {
	sc := manetp2p.DefaultScenario(10, manetp2p.Regular)
	s, err := manetp2p.NewSimulation(sc)
	if err != nil {
		fmt.Println(err)
		return
	}
	s.Step(manetp2p.Seconds(60))
	fmt.Println(s.Now() == manetp2p.Seconds(60), len(s.Net.Members()))
	// Output: true 8
}

// GiniCoefficient quantifies load concentration across nodes.
func ExampleGiniCoefficient() {
	even := manetp2p.GiniCoefficient([]float64{10, 10, 10, 10})
	skewed := manetp2p.GiniCoefficient([]float64{1, 1, 1, 37})
	fmt.Printf("%.2f %.2f\n", even, skewed)
	// Output: 0.00 0.68
}

// Quickstart: the paper's 50-node Regular scenario, cut to two
// replications of five minutes, and its headline metrics: the summary,
// the most-loaded nodes (Figure 7's shape) and the query outcomes of the
// most popular files (Figure 5's shape).
func Example_quickstart() {
	sc := manetp2p.DefaultScenario(50, manetp2p.Regular)
	sc.Replications = 2
	sc.Duration = manetp2p.Seconds(300)
	res, err := manetp2p.Run(sc)
	if err != nil {
		fmt.Println(err)
		return
	}
	manetp2p.WriteSummary(os.Stdout, res)
	fmt.Println("\nmost-loaded nodes by received connect messages:")
	for rank, v := range res.ConnectSeries[:3] {
		fmt.Printf("  rank %d: %.1f messages\n", rank, v)
	}
	fmt.Println("query outcomes by file popularity:")
	for f, fc := range res.PerFile[:3] {
		fmt.Printf("  file %d: %.2f answers/request, min distance %.2f p2p hops (found %.0f%%)\n",
			f+1, fc.Answers.Mean, fc.Distance.Mean, fc.FoundRate*100)
	}
	// Output:
	// == Regular-50: Regular, 50 nodes (75% p2p), 300.000000s x 2 reps ==
	// received per member: connect 22.13 ± 1.8, ping 0.9868 ± 0.27, pong 0.9868 ± 0.32, query 10.72 ± 1.8
	// radio frames per node: rx 1834 ± 2.6e+02, tx 657.5 ± 69
	// routing (AODV): ctrl 83.3+519.1, bcast 4.5+11.0 per node (orig+relay), 20.31 ctrl/delivered, 35.5% send failures
	// overlay: clustering 0.1252 ± 0.41, pathlength 3.732 ± 10, largest component 0.4079 ± 1.8, degree 2.118 ± 0.84
	// connection lifetime: 95.64 ± 6.1 s over 161 closed links
	// queries: 280 requests, 13.2% found
	//
	// most-loaded nodes by received connect messages:
	//   rank 0: 41.5 messages
	//   rank 1: 37.0 messages
	//   rank 2: 35.0 messages
	// query outcomes by file popularity:
	//   file 1: 0.31 answers/request, min distance 1.00 p2p hops (found 31%)
	//   file 2: 0.09 answers/request, min distance 1.00 p2p hops (found 9%)
	//   file 3: 0.13 answers/request, min distance 1.50 p2p hops (found 13%)
}

// Conference: the paper's motivating scenario for the Hybrid algorithm
// (§4, §6.2) — a meeting room of phones, PDAs and notebooks that organise
// themselves into master/slave subnets. One live simulation is stepped
// minute by minute to follow the hierarchy; then the load by device
// class shows the high-qualifier devices carrying the traffic (the
// Figures 11–12 argument), and the Gini coefficient makes the skew
// explicit.
func Example_conference() {
	sc := manetp2p.DefaultScenario(30, manetp2p.Hybrid)
	sc.Quals = manetp2p.DeviceClasses() // phones 0.2, PDAs 0.5, notebooks 0.9
	sc.AreaSide = 40                    // a dense conference venue
	s, err := manetp2p.NewSimulation(sc)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("time   masters  slaves  initial  mesh-links")
	for minute := 1; minute <= 4; minute++ {
		s.Step(manetp2p.Seconds(60))
		if minute%2 != 0 {
			continue
		}
		var masters, slaves, initial, mesh int
		for _, sv := range s.Net.Servents {
			switch {
			case sv == nil || !sv.Joined():
			case sv.State() == p2p.StateMaster:
				masters++
				for _, peer := range sv.Peers() {
					if other := s.Net.Servents[peer]; other != nil && other.State() == p2p.StateMaster {
						mesh++
					}
				}
			case sv.State() == p2p.StateSlave:
				slaves++
			default:
				initial++
			}
		}
		fmt.Printf("%2dmin  %7d  %6d  %7d  %10d\n", minute, masters, slaves, initial, mesh/2)
	}

	byClass := map[float64][]float64{}
	for id, sv := range s.Net.Servents {
		if sv != nil {
			load := s.Net.Collector.Received(id, telemetry.Query) + s.Net.Collector.Received(id, telemetry.Ping)
			byClass[sv.Qualifier()] = append(byClass[sv.Qualifier()], float64(load))
		}
	}
	var all []float64
	for _, class := range []struct {
		q    float64
		name string
	}{{0.2, "phone"}, {0.5, "PDA"}, {0.9, "notebook"}} {
		loads := byClass[class.q]
		sum := 0.0
		for _, l := range loads {
			sum += l
		}
		fmt.Printf("%-9s (q=%.1f): %5.1f query+ping messages over %d devices\n",
			class.name, class.q, sum/float64(len(loads)), len(loads))
		all = append(all, loads...)
	}
	fmt.Printf("load Gini coefficient: %.2f\n", manetp2p.GiniCoefficient(all))
	// Output:
	// time   masters  slaves  initial  mesh-links
	//  2min       11      12        0          14
	//  4min       10      12        1          13
	// phone     (q=0.2):  80.9 query+ping messages over 13 devices
	// PDA       (q=0.5): 100.5 query+ping messages over 6 devices
	// notebook  (q=0.9):  96.2 query+ping messages over 4 devices
	// load Gini coefficient: 0.24
}

// Filesharing: the full Gnutella loop the paper describes but does not
// simulate — query, download, replicate (§2: the file "is transferred
// directly between the peers"). With replication on, downloaded copies
// answer later queries, so popular content spreads toward demand.
func Example_filesharing() {
	fmt.Println("mode          found%   answers/req   min-dist(p2p hops)")
	for _, enabled := range []bool{false, true} {
		sc := manetp2p.DefaultScenario(30, manetp2p.Regular)
		sc.AreaSide = 70
		sc.Replications = 1
		sc.Duration = manetp2p.Seconds(400)
		sc.Params.Download = p2p.DownloadConfig{Enabled: enabled}
		res, err := manetp2p.Run(sc)
		if err != nil {
			fmt.Println(err)
			return
		}
		total, hits, answers, dsum, dn := 0, 0.0, 0.0, 0.0, 0
		for _, fc := range res.PerFile {
			total += fc.Requests
			hits += fc.FoundRate * float64(fc.Requests)
			answers += fc.Answers.Mean * float64(fc.Requests)
			if fc.Distance.N > 0 {
				dsum += fc.Distance.Mean
				dn++
			}
		}
		name := map[bool]string{false: "plain", true: "replicating"}[enabled]
		fmt.Printf("%-12s  %5.1f   %11.2f   %17.2f\n",
			name, 100*hits/float64(total), answers/float64(total), dsum/float64(dn))
	}
	// Output:
	// mode          found%   answers/req   min-dist(p2p hops)
	// plain          17.5          0.21                1.83
	// replicating    21.3          0.27                1.68
}

// Flashcrowd: the paper's query model has every servent ask at a steady
// uniform pace (§7.1). A workload plan scripts something closer to real
// demand — bursty OnOff arrivals, rotating Zipf popularity, the
// seeder/free-rider/transient session mix, and a flash crowd onto three
// hot files — and the four algorithms are compared on offered vs
// resolved demand, success rate, time-to-first-result and the
// connect-message cost of repairing the overlay after each churn event.
func Example_flashcrowd() {
	fmt.Println("alg      offered  resolved  success%  ttfr-s  churn/rep  repair-msgs/event")
	for _, alg := range manetp2p.Algorithms() {
		sc := manetp2p.DefaultScenario(30, alg)
		sc.Replications = 1
		sc.Duration = manetp2p.Seconds(600)
		sc.Workload = &manetp2p.WorkloadPlan{
			Arrival:    manetp2p.WorkloadArrival{Process: manetp2p.ArrivalOnOff, Rate: 0.1},
			Popularity: manetp2p.WorkloadPopularity{Skew: 1.2, RotateEvery: manetp2p.Seconds(100)},
			Sessions:   manetp2p.DefaultWorkloadSessions(),
			Phases: []manetp2p.WorkloadPhase{
				{Name: "ramp", RateScale: 0.5},
				{Name: "steady", Start: manetp2p.Seconds(100)},
				{Name: "flash", Start: manetp2p.Seconds(300), RateScale: 3, HotFiles: 3, HotBoost: 0.8},
				{Name: "drain", Start: manetp2p.Seconds(500), RateScale: 0.25},
			},
		}
		res, err := manetp2p.Run(sc)
		if err != nil {
			fmt.Println(err)
			return
		}
		ws := res.Workload
		fmt.Printf("%-8s %7.0f  %8.0f  %7.1f%%  %6.2f  %9.1f  %17.1f\n",
			alg, ws.Offered.Mean, ws.Resolved.Mean, 100*ws.SuccessRate,
			ws.TTFR.Mean, ws.ChurnEvents.Mean, ws.RepairPerChurn)
	}
	// Output:
	// alg      offered  resolved  success%  ttfr-s  churn/rep  repair-msgs/event
	// Basic         81         7      8.6%    0.01        2.0              450.0
	// Regular       93         6      6.5%    0.01        2.0              281.5
	// Random       112         5      4.5%    0.01        2.0              410.0
	// Hybrid        85         3      3.5%    0.03        2.0              316.0
}

// Rescue: an emergency-operation MANET (§4) hit by correlated failures
// — a scripted fault plan splits the arena in two, then crashes a wave
// of responders' radios at once — on 1 J batteries. Basic and Regular
// are compared on battery deaths, connect traffic, time-to-reheal,
// residual disconnection and the message cost of recovery.
func Example_rescue() {
	fmt.Println("alg      deaths/rep  connect/node  reheal-s  rehealed%  residual  recovery-msgs")
	for _, alg := range []manetp2p.Algorithm{manetp2p.Basic, manetp2p.Regular} {
		sc := manetp2p.DefaultScenario(30, alg)
		sc.AreaSide = 60
		sc.Replications = 1
		sc.Duration = manetp2p.Seconds(600)
		sc.Energy = manetp2p.DefaultEnergy(1)
		sc.Faults = manetp2p.FaultPlan{Events: []manetp2p.FaultEvent{
			manetp2p.PartitionFault(manetp2p.Seconds(200), manetp2p.Seconds(60), manetp2p.AxisX, sc.AreaSide/2),
			manetp2p.CrashGroupFault(manetp2p.Seconds(400), manetp2p.Seconds(120), 6),
		}}
		res, err := manetp2p.Run(sc)
		if err != nil {
			fmt.Println(err)
			return
		}
		reheal, rehealed, residual, cost := 0.0, 0.0, 0.0, 0.0
		for _, ev := range res.Resilience.Events {
			reheal += ev.RehealSeconds.Mean
			rehealed += ev.RehealedFraction
			residual += ev.ResidualDisconnect.Mean
			cost += ev.RecoveryMessages.Mean
		}
		n := float64(len(res.Resilience.Events))
		fmt.Printf("%-8s %10.1f  %12.1f  %8.1f  %8.0f%%  %8.3f  %13.1f\n",
			alg, res.Deaths.Mean, res.Totals[telemetry.Connect].Mean,
			reheal/n, 100*rehealed/n, residual/n, cost/n)
	}
	// Output:
	// alg      deaths/rep  connect/node  reheal-s  rehealed%  residual  recovery-msgs
	// Basic          19.0          44.1       0.0       100%     0.042            0.0
	// Regular        19.0          24.8       5.0       100%     0.022            0.2
}

// Smallworld: the paper's §6.1.2 question — does the Random algorithm's
// long-range link make the overlay a small world (high clustering, short
// pathlength)? The paper found no effect (§7.4) and offered two
// explanations: too few nodes, or mobility tearing the random links down
// before they help. The three cases below reproduce the null result on
// the mobile network and isolate the second explanation by freezing
// mobility; the reference line is the ring and random-graph pathlength.
func Example_smallworld() {
	for _, c := range []struct {
		name   string
		nodes  int
		area   float64
		static bool
	}{{"paper scale, mobile", 50, 100, false}, {"denser, mobile", 30, 40, false}, {"denser, static", 30, 40, true}} {
		fmt.Printf("%s (%d nodes, %gx%g m):\n", c.name, c.nodes, c.area, c.area)
		for _, alg := range []manetp2p.Algorithm{manetp2p.Regular, manetp2p.Random} {
			sc := manetp2p.DefaultScenario(c.nodes, alg)
			sc.AreaSide = c.area
			sc.Replications = 1
			sc.Duration = manetp2p.Seconds(150)
			sc.SnapshotEvery = manetp2p.Seconds(50)
			if c.static {
				sc.Mobility = manetp2p.MobilityStationary
			}
			res, err := manetp2p.Run(sc)
			if err != nil {
				fmt.Println(err)
				return
			}
			o := res.Overlay
			fmt.Printf("  %-8s clustering %.3f  pathlength %.3f  largest-comp %.2f  degree %.2f\n",
				alg, o.Clustering.Mean, o.PathLength.Mean, o.LargestComponent.Mean, o.MeanDegree.Mean)
		}
		n, k := c.nodes*3/4, 3
		fmt.Printf("  reference: L_regular(n=%d,k=%d)=%.1f, L_random=%.2f\n",
			n, k, graphs.RegularPathLength(n, k), graphs.RandomPathLength(n, k))
	}
	// Output:
	// paper scale, mobile (50 nodes, 100x100 m):
	//   Regular  clustering 0.414  pathlength 2.418  largest-comp 0.27  degree 2.18
	//   Random   clustering 0.420  pathlength 3.043  largest-comp 0.33  degree 2.04
	//   reference: L_regular(n=37,k=3)=6.2, L_random=3.29
	// denser, mobile (30 nodes, 40x40 m):
	//   Regular  clustering 0.305  pathlength 3.303  largest-comp 0.77  degree 2.75
	//   Random   clustering 0.000  pathlength 2.708  largest-comp 0.84  degree 2.72
	//   reference: L_regular(n=22,k=3)=3.7, L_random=2.81
	// denser, static (30 nodes, 40x40 m):
	//   Regular  clustering 0.293  pathlength 3.813  largest-comp 0.83  degree 2.72
	//   Random   clustering 0.000  pathlength 3.013  largest-comp 0.96  degree 2.78
	//   reference: L_regular(n=22,k=3)=3.7, L_random=2.81
}
