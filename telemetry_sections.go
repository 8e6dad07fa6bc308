package manetp2p

import (
	"fmt"
	"io"

	"manetp2p/internal/netif"
	"manetp2p/internal/stats"
	"manetp2p/internal/telemetry"
)

// This file is the telemetry plane's registration block: every layer of
// the simulator registers one named section with the shared registry,
// and per-replication collection (runReplication), cross-replication
// pooling (aggregate), summary rendering (WriteSummary), detailed
// reports (WriteWorkload/WriteResilience) and time-series streaming
// (RunWithMetrics) are all registry walks over these sections — there
// is no per-subsystem aggregation code anywhere else.
//
// Registration order is the contract: it fixes the collect order (the
// invariant checker finalizes first), the summary render order (must
// reproduce the historical WriteSummary layout byte for byte — the
// golden fixtures and testdata/golden/report.txt pin this) and the
// sink's point order.

// section is the telemetry plane instantiated on the root types: a
// live replication as source, the Scenario as configuration, repResult
// as the per-replication record and Result as the pooled output.
type section = telemetry.Section[*repRun, Scenario, *repResult, *Result]

// sections is the process-wide registry, assembled once at init.
var sections = newSectionRegistry()

func newSectionRegistry() *telemetry.Registry[*repRun, Scenario, *repResult, *Result] {
	g := &telemetry.Registry[*repRun, Scenario, *repResult, *Result]{}

	// Runtime invariant checker. Registered first so Finalize's closing
	// sweeps run before any other section harvests; renders nothing —
	// findings are reported via Result.Invariants.
	g.Register(section{
		Name: "invariants",
		Collect: func(r *repRun, rr *repResult) {
			if net := r.net; net.Checker != nil {
				net.Checker.Finalize()
				rr.Checked = true
				rr.ViolTotal = net.Checker.Total()
				rr.Violations = net.Checker.Violations()
			}
		},
		Pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.Invariants = invariantReport(sc, reps)
		},
	})

	// P2p servent layer: per-member received-message counts by class
	// (Figures 7–12) and the time-bucketed message-rate series.
	g.Register(section{
		Name: "servent",
		Collect: func(r *repRun, rr *repResult) {
			net := r.net
			members := net.Members()
			rr.Members = len(members)
			counts := make([]uint64, 0, len(members)) // reused across classes
			for class := 0; class < telemetry.NumClasses; class++ {
				counts = counts[:0]
				for _, id := range members {
					counts = append(counts, net.Collector.Received(id, telemetry.Class(class)))
				}
				rr.Series[class] = stats.DescendingSeries(counts)
				totals := make([]float64, len(counts))
				for i, c := range counts {
					totals[i] = float64(c)
				}
				rr.Totals[class] = totals
			}
			if r.sc.TrafficBucket > 0 {
				perMember := func(series []uint64) []float64 {
					out := make([]float64, len(series))
					for i, v := range series {
						out[i] = float64(v) / float64(len(members))
					}
					return out
				}
				rr.ConnRate = perMember(net.Collector.Series(telemetry.Connect))
				rr.QueryRate = perMember(net.Collector.Series(telemetry.Query))
			}
		},
		Pool: func(sc Scenario, reps []*repResult, res *Result) {
			// Figures 7–12: rank-wise mean of descending per-node series.
			collect := func(class telemetry.Class) []float64 {
				series := make([][]float64, 0, len(reps))
				for _, rr := range reps {
					series = append(series, rr.Series[class])
				}
				return stats.MeanSeries(series)
			}
			res.ConnectSeries = collect(telemetry.Connect)
			res.PingSeries = collect(telemetry.Ping)
			res.PongSeries = collect(telemetry.Pong)
			res.QuerySeries = collect(telemetry.Query)
			res.HitSeries = collect(telemetry.QueryHit)

			for class := 0; class < telemetry.NumClasses; class++ {
				var pooled []float64
				for _, rr := range reps {
					pooled = append(pooled, rr.Totals[class]...)
				}
				res.Totals[class] = stats.Summarize(pooled)
			}

			connRates := make([][]float64, 0, len(reps))
			queryRates := make([][]float64, 0, len(reps))
			for _, rr := range reps {
				if len(rr.ConnRate) > 0 {
					connRates = append(connRates, rr.ConnRate)
				}
				if len(rr.QueryRate) > 0 {
					queryRates = append(queryRates, rr.QueryRate)
				}
			}
			res.ConnectTraffic = stats.MeanSeries(connRates)
			res.QueryTraffic = stats.MeanSeries(queryRates)
		},
		Render: func(w io.Writer, r *Result) {
			fmt.Fprintf(w, "received per member: connect %s, ping %s, pong %s, query %s\n",
				r.Totals[telemetry.Connect], r.Totals[telemetry.Ping],
				r.Totals[telemetry.Pong], r.Totals[telemetry.Query])
		},
		Stream: func(sc Scenario, rep int, rr *repResult, emit func(telemetry.Point)) {
			bucket := sc.TrafficBucket.Seconds()
			for i, v := range rr.ConnRate {
				emit(telemetry.Point{Rep: rep, T: float64(i) * bucket, Section: "servent", Name: "connect-rate", Value: v})
			}
			for i, v := range rr.QueryRate {
				emit(telemetry.Point{Rep: rep, T: float64(i) * bucket, Section: "servent", Name: "query-rate", Value: v})
			}
		},
	})

	// Radio layer: frames on the air per node.
	g.Register(section{
		Name: "radio",
		Collect: func(r *repRun, rr *repResult) {
			for i := 0; i < r.sc.NumNodes; i++ {
				st := r.net.Medium.Stats(i)
				rr.RxFrames = append(rr.RxFrames, float64(st.RxFrames))
				rr.TxFrames = append(rr.TxFrames, float64(st.TxFrames))
			}
		},
		Pool: func(sc Scenario, reps []*repResult, res *Result) {
			var rx, tx []float64
			for _, rr := range reps {
				rx = append(rx, rr.RxFrames...)
				tx = append(tx, rr.TxFrames...)
			}
			res.RxFrames = stats.Summarize(rx)
			res.TxFrames = stats.Summarize(tx)
		},
		Render: func(w io.Writer, r *Result) {
			fmt.Fprintf(w, "radio frames per node: rx %s, tx %s\n", r.RxFrames, r.TxFrames)
		},
		Stream: func(sc Scenario, rep int, rr *repResult, emit func(telemetry.Point)) {
			var rx, tx float64
			for _, v := range rr.RxFrames {
				rx += v
			}
			for _, v := range rr.TxFrames {
				tx += v
			}
			t := sc.Duration.Seconds()
			emit(telemetry.Point{Rep: rep, T: t, Section: "radio", Name: "rx-frames", Value: rx})
			emit(telemetry.Point{Rep: rep, T: t, Section: "radio", Name: "tx-frames", Value: tx})
		},
	})

	// Routing layer: the unified netif.Stats effort counters.
	g.Register(section{
		Name: "route",
		Collect: func(r *repRun, rr *repResult) {
			rr.Routing = r.net.RoutingStats()
		},
		Pool: func(sc Scenario, reps []*repResult, res *Result) {
			pool := func(pick func(netif.Stats) uint64) stats.Summary {
				var vals []float64
				for _, rr := range reps {
					for _, st := range rr.Routing {
						vals = append(vals, float64(pick(st)))
					}
				}
				return stats.Summarize(vals)
			}
			res.Routing = &RoutingStats{
				Protocol:       sc.Routing.String(),
				CtrlOrig:       pool(func(s netif.Stats) uint64 { return s.CtrlOrig }),
				CtrlRelayed:    pool(func(s netif.Stats) uint64 { return s.CtrlRelayed }),
				BcastOrig:      pool(func(s netif.Stats) uint64 { return s.BcastOrig }),
				BcastRelayed:   pool(func(s netif.Stats) uint64 { return s.BcastRelayed }),
				DataSent:       pool(func(s netif.Stats) uint64 { return s.DataSent }),
				DataForwarded:  pool(func(s netif.Stats) uint64 { return s.DataForwarded }),
				DataDropped:    pool(func(s netif.Stats) uint64 { return s.DataDropped }),
				Delivered:      pool(func(s netif.Stats) uint64 { return s.Delivered }),
				Discoveries:    pool(func(s netif.Stats) uint64 { return s.Discoveries }),
				DiscoverFailed: pool(func(s netif.Stats) uint64 { return s.DiscoverFailed }),
				SendFailed:     pool(func(s netif.Stats) uint64 { return s.SendFailed }),
				DupHits:        pool(func(s netif.Stats) uint64 { return s.DupHits }),
			}
		},
		Render: func(w io.Writer, r *Result) {
			if rt := r.Routing; rt != nil {
				fmt.Fprintf(w, "routing (%s): ctrl %.1f+%.1f, bcast %.1f+%.1f per node (orig+relay), %.2f ctrl/delivered, %.1f%% send failures\n",
					rt.Protocol, rt.CtrlOrig.Mean, rt.CtrlRelayed.Mean,
					rt.BcastOrig.Mean, rt.BcastRelayed.Mean,
					rt.ControlPerDelivered(), 100*rt.SendFailRate())
			}
		},
		Stream: func(sc Scenario, rep int, rr *repResult, emit func(telemetry.Point)) {
			sum := func(pick func(netif.Stats) uint64) float64 {
				var s float64
				for _, st := range rr.Routing {
					s += float64(pick(st))
				}
				return s
			}
			t := sc.Duration.Seconds()
			for _, c := range []struct {
				name string
				pick func(netif.Stats) uint64
			}{
				{"ctrl-orig", func(s netif.Stats) uint64 { return s.CtrlOrig }},
				{"ctrl-relayed", func(s netif.Stats) uint64 { return s.CtrlRelayed }},
				{"bcast-orig", func(s netif.Stats) uint64 { return s.BcastOrig }},
				{"bcast-relayed", func(s netif.Stats) uint64 { return s.BcastRelayed }},
				{"delivered", func(s netif.Stats) uint64 { return s.Delivered }},
				{"send-failed", func(s netif.Stats) uint64 { return s.SendFailed }},
			} {
				emit(telemetry.Point{Rep: rep, T: t, Section: "route", Name: c.name, Value: sum(c.pick)})
			}
		},
	})

	// Overlay graph snapshots (filled by the snapshot ticker during the
	// run, so there is nothing to collect at the horizon).
	g.Register(section{
		Name: "overlay",
		Pool: func(sc Scenario, reps []*repResult, res *Result) {
			var clust, pl, largest, deg []float64
			for _, rr := range reps {
				clust = append(clust, rr.Clust...)
				pl = append(pl, rr.PathLen...)
				largest = append(largest, rr.Largest...)
				deg = append(deg, rr.MeanDeg...)
			}
			res.Overlay = OverlayStats{
				Samples:          len(clust),
				Clustering:       stats.Summarize(clust),
				PathLength:       stats.Summarize(pl),
				LargestComponent: stats.Summarize(largest),
				MeanDegree:       stats.Summarize(deg),
			}

			aliveSeries := make([][]float64, 0, len(reps))
			degSeries := make([][]float64, 0, len(reps))
			for _, rr := range reps {
				if len(rr.Alive) > 0 {
					aliveSeries = append(aliveSeries, rr.Alive)
				}
				if len(rr.DegSeries) > 0 {
					degSeries = append(degSeries, rr.DegSeries)
				}
			}
			res.AliveSeries = stats.MeanSeries(aliveSeries)
			res.DegreeSeries = stats.MeanSeries(degSeries)
		},
		Render: func(w io.Writer, r *Result) {
			if r.Overlay.Samples > 0 {
				fmt.Fprintf(w, "overlay: clustering %s, pathlength %s, largest component %s, degree %s\n",
					r.Overlay.Clustering, r.Overlay.PathLength,
					r.Overlay.LargestComponent, r.Overlay.MeanDegree)
			}
		},
		Stream: func(sc Scenario, rep int, rr *repResult, emit func(telemetry.Point)) {
			period := sc.SnapshotEvery.Seconds()
			at := func(i int) float64 { return float64(i+1) * period }
			for i, v := range rr.Largest {
				emit(telemetry.Point{Rep: rep, T: at(i), Section: "overlay", Name: "largest-comp", Value: v})
			}
			for i, v := range rr.Clust {
				emit(telemetry.Point{Rep: rep, T: at(i), Section: "overlay", Name: "clustering", Value: v})
			}
			for i, v := range rr.Alive {
				emit(telemetry.Point{Rep: rep, T: at(i), Section: "overlay", Name: "alive", Value: v})
			}
			for i, v := range rr.DegSeries {
				emit(telemetry.Point{Rep: rep, T: at(i), Section: "overlay", Name: "mean-degree", Value: v})
			}
		},
	})

	// Energy model: per-node joules and battery deaths.
	g.Register(section{
		Name: "energy",
		Collect: func(r *repRun, rr *repResult) {
			for i := 0; i < r.sc.NumNodes; i++ {
				tx, rx := r.net.Medium.Battery(i).Spent()
				rr.Energy = append(rr.Energy, tx+rx)
			}
			if r.sc.Energy.Capacity > 0 {
				for i := 0; i < r.sc.NumNodes; i++ {
					if r.net.Medium.Battery(i).Empty() {
						rr.Deaths++
					}
				}
			}
		},
		Pool: func(sc Scenario, reps []*repResult, res *Result) {
			var deaths, energy []float64
			for _, rr := range reps {
				deaths = append(deaths, rr.Deaths)
				energy = append(energy, rr.Energy...)
			}
			res.Deaths = stats.Summarize(deaths)
			res.EnergySpent = stats.Summarize(energy)
		},
		Render: func(w io.Writer, r *Result) {
			if r.Scenario.Energy.Capacity > 0 {
				fmt.Fprintf(w, "energy: spent/node %s J, deaths/rep %s\n", r.EnergySpent, r.Deaths)
			}
		},
		Stream: func(sc Scenario, rep int, rr *repResult, emit func(telemetry.Point)) {
			if sc.Energy.Capacity <= 0 {
				return
			}
			var spent float64
			for _, v := range rr.Energy {
				spent += v
			}
			t := sc.Duration.Seconds()
			emit(telemetry.Point{Rep: rep, T: t, Section: "energy", Name: "spent-joules", Value: spent})
			emit(telemetry.Point{Rep: rep, T: t, Section: "energy", Name: "deaths", Value: rr.Deaths})
		},
	})

	// Overlay connection sessions: lifetimes of closed links.
	g.Register(section{
		Name: "sessions",
		Collect: func(r *repRun, rr *repResult) {
			rr.Lifetimes = r.net.Collector.Lifetimes()
		},
		Pool: func(sc Scenario, reps []*repResult, res *Result) {
			var lifetimes []float64
			for _, rr := range reps {
				lifetimes = append(lifetimes, rr.Lifetimes...)
			}
			res.ConnLifetime = stats.Summarize(lifetimes)
		},
		Render: func(w io.Writer, r *Result) {
			if r.ConnLifetime.N > 0 {
				fmt.Fprintf(w, "connection lifetime: %s s over %d closed links\n",
					r.ConnLifetime, r.ConnLifetime.N)
			}
		},
	})

	// Fault resilience: the periodic health telemetry and per-fault
	// recovery metrics.
	g.Register(section{
		Name: "resilience",
		Collect: func(r *repRun, rr *repResult) {
			rr.Health = r.net.Collector.Health()
		},
		Pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.Resilience = computeResilience(sc, reps)
		},
		Render: func(w io.Writer, r *Result) {
			if res := r.Resilience; res != nil {
				for _, ev := range res.Events {
					fmt.Fprintf(w, "fault %s: baseline %.2f, trough %.2f, reheal %.1f s (%.0f%% of reps), residual %.3f, cost %.1f msgs/member\n",
						ev.Label, ev.Baseline.Mean, ev.Trough.Mean,
						ev.RehealSeconds.Mean, 100*ev.RehealedFraction,
						ev.ResidualDisconnect.Mean, ev.RecoveryMessages.Mean)
				}
			}
		},
		Report: reportResilience,
		Stream: func(sc Scenario, rep int, rr *repResult, emit func(telemetry.Point)) {
			for _, h := range rr.Health {
				t := h.At.Seconds()
				emit(telemetry.Point{Rep: rep, T: t, Section: "resilience", Name: "largest-comp", Value: h.LargestComp})
				emit(telemetry.Point{Rep: rep, T: t, Section: "resilience", Name: "links", Value: float64(h.Links)})
				emit(telemetry.Point{Rep: rep, T: t, Section: "resilience", Name: "connect-received", Value: float64(h.Received[telemetry.Connect])})
			}
		},
	})

	// Workload demand engine: the conservation ledger and latency
	// distributions.
	g.Register(section{
		Name: "workload",
		Collect: func(r *repRun, rr *repResult) {
			if net := r.net; net.Demand != nil {
				t := net.Demand.Snapshot()
				rr.Workload = &t
			}
			rr.Churnit = float64(r.net.ChurnEvents())
		},
		Pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.Workload = aggregateWorkload(reps)
		},
		Render: func(w io.Writer, r *Result) {
			if ws := r.Workload; ws != nil {
				fmt.Fprintf(w, "workload: offered %.0f/rep, issued %.0f, %.1f%% success, ttfr %.2f s, completion %.2f s\n",
					ws.Offered.Mean, ws.Issued.Mean, 100*ws.SuccessRate,
					ws.TTFR.Mean, ws.Completion.Mean)
				if ws.ChurnEvents.Mean > 0 {
					fmt.Fprintf(w, "workload churn: %.1f departures/rep, repair cost %.1f connect msgs/event\n",
						ws.ChurnEvents.Mean, ws.RepairPerChurn)
				}
			}
		},
		Report: reportWorkload,
		Stream: func(sc Scenario, rep int, rr *repResult, emit func(telemetry.Point)) {
			t := rr.Workload
			if t == nil {
				return
			}
			at := sc.Duration.Seconds()
			for _, c := range []struct {
				name string
				v    float64
			}{
				{"offered", float64(t.Offered)},
				{"retries", float64(t.Retries)},
				{"issued", float64(t.Issued)},
				{"resolved", float64(t.Resolved)},
				{"expired", float64(t.Expired)},
				{"aborted", float64(t.Aborted)},
				{"in-flight", float64(t.InFlight)},
				{"churn-events", rr.Churnit},
			} {
				emit(telemetry.Point{Rep: rep, T: at, Section: "workload", Name: c.name, Value: c.v})
			}
		},
	})

	// File search outcomes: the per-file distance/answer curves of
	// Figures 5–6. Renders last: the closing "queries:" line.
	g.Register(section{
		Name: "search",
		Collect: func(r *repRun, rr *repResult) {
			rr.Requests = r.net.Collector.Requests()
		},
		Pool: func(sc Scenario, reps []*repResult, res *Result) {
			// Figures 5–6: group requests by file rank.
			type fileAcc struct {
				dist, adhoc, answers []float64
				requests, found      int
			}
			accs := make([]fileAcc, sc.Files.NumFiles)
			for _, rr := range reps {
				for _, q := range rr.Requests {
					if q.File < 0 || q.File >= len(accs) {
						continue
					}
					a := &accs[q.File]
					a.requests++
					a.answers = append(a.answers, float64(q.Answers))
					if q.Found {
						a.found++
						a.dist = append(a.dist, float64(q.MinP2P))
						a.adhoc = append(a.adhoc, float64(q.MinAdhoc))
					}
				}
			}
			for f, a := range accs {
				fc := FileCurve{
					File:      f,
					Requests:  a.requests,
					Distance:  stats.Summarize(a.dist),
					AdhocDist: stats.Summarize(a.adhoc),
					Answers:   stats.Summarize(a.answers),
				}
				if a.requests > 0 {
					fc.FoundRate = float64(a.found) / float64(a.requests)
				}
				res.PerFile = append(res.PerFile, fc)
			}
		},
		Render: func(w io.Writer, r *Result) {
			found, reqs := 0.0, 0
			for _, fc := range r.PerFile {
				reqs += fc.Requests
				found += fc.FoundRate * float64(fc.Requests)
			}
			if reqs > 0 {
				fmt.Fprintf(w, "queries: %d requests, %.1f%% found\n", reqs, 100*found/float64(reqs))
			}
		},
		Stream: func(sc Scenario, rep int, rr *repResult, emit func(telemetry.Point)) {
			found := 0
			for _, q := range rr.Requests {
				if q.Found {
					found++
				}
			}
			t := sc.Duration.Seconds()
			emit(telemetry.Point{Rep: rep, T: t, Section: "search", Name: "requests", Value: float64(len(rr.Requests))})
			emit(telemetry.Point{Rep: rep, T: t, Section: "search", Name: "found", Value: float64(found)})
		},
	})

	return g
}

// aggregateWorkload pools the demand telemetry: one sample per
// replication for each ledger counter, pooled latency distributions,
// and the repair-cost-per-churn-event ratio derived from connect-class
// message totals. Nil when no replication ran a workload plan.
func aggregateWorkload(reps []*repResult) *WorkloadStats {
	var any bool
	for _, rr := range reps {
		if rr.Workload != nil {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	var offered, retries, issued, resolved, expired, aborted, inflight []float64
	var ttfr, completion, churn []float64
	var totOffered, totResolved, totConnect, totChurn float64
	classNodes := map[string][]float64{}
	classIssued := map[string][]float64{}
	var classOrder []string
	for _, rr := range reps {
		t := rr.Workload
		if t == nil {
			continue
		}
		offered = append(offered, float64(t.Offered))
		retries = append(retries, float64(t.Retries))
		issued = append(issued, float64(t.Issued))
		resolved = append(resolved, float64(t.Resolved))
		expired = append(expired, float64(t.Expired))
		aborted = append(aborted, float64(t.Aborted))
		inflight = append(inflight, float64(t.InFlight))
		ttfr = append(ttfr, t.TTFR...)
		completion = append(completion, t.Completion...)
		churn = append(churn, rr.Churnit)
		totOffered += float64(t.Offered)
		totResolved += float64(t.Resolved)
		totChurn += rr.Churnit
		for _, v := range rr.Totals[telemetry.Connect] {
			totConnect += v
		}
		for _, c := range t.Classes {
			if _, seen := classNodes[c.Name]; !seen {
				classOrder = append(classOrder, c.Name)
			}
			classNodes[c.Name] = append(classNodes[c.Name], float64(c.Nodes))
			classIssued[c.Name] = append(classIssued[c.Name], float64(c.Issued))
		}
	}
	ws := &WorkloadStats{
		Offered:        stats.Summarize(offered),
		Retries:        stats.Summarize(retries),
		Issued:         stats.Summarize(issued),
		Resolved:       stats.Summarize(resolved),
		Expired:        stats.Summarize(expired),
		Aborted:        stats.Summarize(aborted),
		InFlight:       stats.Summarize(inflight),
		SuccessRate:    safeRatio(totResolved, totOffered),
		TTFR:           stats.Summarize(ttfr),
		Completion:     stats.Summarize(completion),
		ChurnEvents:    stats.Summarize(churn),
		RepairPerChurn: safeRatio(totConnect, totChurn),
	}
	for _, name := range classOrder {
		ws.Classes = append(ws.Classes, WorkloadClassStats{
			Name:   name,
			Nodes:  stats.Summarize(classNodes[name]),
			Issued: stats.Summarize(classIssued[name]),
		})
	}
	return ws
}

// reportWorkload is the workload section's detailed report: the demand
// ledger, derived rates and per-class breakdown as TSV (the body of the
// exported WriteWorkload).
func reportWorkload(w io.Writer, r *Result) error {
	ws := r.Workload
	if ws == nil {
		return nil
	}
	fmt.Fprintf(w, "# demand telemetry (%s): per-replication ledger\n", r.Scenario.Algorithm)
	fmt.Fprintln(w, "counter\tmean\tstddev\tmin\tmax")
	for _, row := range []struct {
		name               string
		mean, sd, min, max float64
	}{
		{"offered", ws.Offered.Mean, ws.Offered.StdDev, ws.Offered.Min, ws.Offered.Max},
		{"retries", ws.Retries.Mean, ws.Retries.StdDev, ws.Retries.Min, ws.Retries.Max},
		{"issued", ws.Issued.Mean, ws.Issued.StdDev, ws.Issued.Min, ws.Issued.Max},
		{"resolved", ws.Resolved.Mean, ws.Resolved.StdDev, ws.Resolved.Min, ws.Resolved.Max},
		{"expired", ws.Expired.Mean, ws.Expired.StdDev, ws.Expired.Min, ws.Expired.Max},
		{"aborted", ws.Aborted.Mean, ws.Aborted.StdDev, ws.Aborted.Min, ws.Aborted.Max},
		{"in-flight", ws.InFlight.Mean, ws.InFlight.StdDev, ws.InFlight.Min, ws.InFlight.Max},
	} {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.0f\t%.0f\n", row.name, row.mean, row.sd, row.min, row.max)
	}
	fmt.Fprintf(w, "\nsuccess-rate\t%.3f\n", ws.SuccessRate)
	fmt.Fprintf(w, "ttfr-s\t%s\t(n=%d)\n", ws.TTFR, ws.TTFR.N)
	fmt.Fprintf(w, "completion-s\t%s\t(n=%d)\n", ws.Completion, ws.Completion.N)
	fmt.Fprintf(w, "churn-events/rep\t%.1f\n", ws.ChurnEvents.Mean)
	fmt.Fprintf(w, "repair-msgs/churn\t%.1f\n", ws.RepairPerChurn)
	if len(ws.Classes) > 0 {
		fmt.Fprintln(w, "\n# session classes")
		fmt.Fprintln(w, "class\tnodes\tissued")
		for _, c := range ws.Classes {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", c.Name, c.Nodes.Mean, c.Issued.Mean)
		}
	}
	return nil
}

// reportResilience is the resilience section's detailed report: the
// health time series and per-fault recovery rows as TSV (the body of
// the exported WriteResilience).
func reportResilience(w io.Writer, r *Result) error {
	res := r.Resilience
	if res == nil {
		return nil
	}
	fmt.Fprintf(w, "# overlay health sampled every %.0fs (%s)\n",
		res.SampleEvery, r.Scenario.Algorithm)
	fmt.Fprintln(w, "time\tlargest-comp\tlinks\tconnect/member/s")
	for i, t := range res.Times {
		fmt.Fprintf(w, "%.0f\t%.3f\t%.1f\t%.3f\n",
			t, res.LargestComp[i], res.Links[i], res.ConnectRate[i])
	}
	if len(res.Events) == 0 {
		return nil
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "# recovery per scripted fault")
	fmt.Fprintln(w, "fault\tcleared\tbaseline\ttrough\treheal-s\trehealed%\tresidual\trecovery-msgs")
	for _, ev := range res.Events {
		fmt.Fprintf(w, "%s\t%.0f\t%.3f\t%.3f\t%.1f\t%.0f\t%.3f\t%.1f\n",
			ev.Label, ev.ClearSeconds, ev.Baseline.Mean, ev.Trough.Mean,
			ev.RehealSeconds.Mean, 100*ev.RehealedFraction,
			ev.ResidualDisconnect.Mean, ev.RecoveryMessages.Mean)
	}
	return nil
}
