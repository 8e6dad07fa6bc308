package manetp2p

import (
	"encoding/json"
	"fmt"
	"io"

	"manetp2p/internal/manet"
	"manetp2p/internal/netif"
	"manetp2p/internal/stats"
	"manetp2p/internal/telemetry"
)

// This file is the telemetry plane: every layer of the simulator has one
// entry in the sections list, and per-replication collection
// (runReplication), cross-replication pooling (aggregate), summary
// rendering (WriteSummary) and time-series streaming (streamRep) are
// each one loop over that list — there is no per-subsystem aggregation
// code anywhere else.
//
// List order is the contract: it fixes the collect order (the invariant
// checker finalizes first), the summary render order (must reproduce the
// historical WriteSummary layout byte for byte — the golden fixtures and
// testdata/golden/report.txt pin this), the sink's point order
// (testdata/golden/metrics.jsonl) and the checkpoint manifest.

// emitFunc receives one streamed sample of the section and replication
// being walked; streamRep stamps those two onto the point.
type emitFunc func(t float64, name string, value float64)

// section is one layer's entry in the telemetry plane. Every hook is
// optional.
type section struct {
	// name identifies the section in the checkpoint manifest and in
	// sink points. Non-empty and unique (TestSectionNames).
	name string
	// collect harvests a finished replication into its record.
	collect func(sc Scenario, net *manet.Network, rr *repResult)
	// pool folds all replications into the pooled Result.
	pool func(sc Scenario, reps []*repResult, res *Result)
	// render writes the section's line(s) of the summary.
	render func(w io.Writer, r *Result)
	// stream emits one replication's time series.
	stream func(sc Scenario, rr *repResult, emit emitFunc)
}

var sections = []section{
	// Runtime invariant checker. First so Finalize's closing sweeps run
	// before any other section harvests; renders nothing — findings are
	// reported via Result.Invariants.
	{
		name: "invariants",
		collect: func(sc Scenario, net *manet.Network, rr *repResult) {
			if net.Checker != nil {
				net.Checker.Finalize()
				rr.Checked = true
				rr.ViolTotal = net.Checker.Total()
				rr.Violations = net.Checker.Violations()
			}
		},
		pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.Invariants = invariantReport(sc, reps)
		},
	},

	// P2p servent layer: per-member received-message counts by class
	// (Figures 7–12) and the time-bucketed message-rate series.
	{
		name: "servent",
		collect: func(sc Scenario, net *manet.Network, rr *repResult) {
			members := net.Members()
			for class := range rr.Totals {
				totals := make([]float64, len(members))
				for i, id := range members {
					totals[i] = float64(net.Collector.Received(id, telemetry.Class(class)))
				}
				rr.Totals[class] = totals
			}
			if sc.TrafficBucket > 0 {
				// Buckets past the last message stay zero: every
				// replication's series spans the horizon, so a quiet tail
				// or a silent replication pools as the zeros it measured.
				spanned := int((sc.Duration + sc.TrafficBucket - 1) / sc.TrafficBucket)
				perMember := func(series []uint64) []float64 {
					out := make([]float64, max(len(series), spanned))
					for i, v := range series {
						out[i] = float64(v) / float64(len(members))
					}
					return out
				}
				rr.ConnRate = perMember(net.Collector.Series(telemetry.Connect))
				rr.QueryRate = perMember(net.Collector.Series(telemetry.Query))
			}
		},
		pool: func(sc Scenario, reps []*repResult, res *Result) {
			// Figures 7–12: rank-wise mean of descending per-node series.
			ranked := func(class telemetry.Class) []float64 {
				return poolSeries(reps, func(rr *repResult) []float64 { return stats.DescendingSeries(rr.Totals[class]) })
			}
			res.ConnectSeries = ranked(telemetry.Connect)
			res.PingSeries = ranked(telemetry.Ping)
			res.PongSeries = ranked(telemetry.Pong)
			res.QuerySeries = ranked(telemetry.Query)
			res.HitSeries = ranked(telemetry.QueryHit)
			for class := range res.Totals {
				res.Totals[class] = poolAll(reps, func(rr *repResult) []float64 { return rr.Totals[class] })
			}
			res.ConnectTraffic = poolSeries(reps, func(rr *repResult) []float64 { return rr.ConnRate })
			res.QueryTraffic = poolSeries(reps, func(rr *repResult) []float64 { return rr.QueryRate })
		},
		render: func(w io.Writer, r *Result) {
			fmt.Fprintf(w, "received per member: connect %s, ping %s, pong %s, query %s\n",
				r.Totals[telemetry.Connect], r.Totals[telemetry.Ping],
				r.Totals[telemetry.Pong], r.Totals[telemetry.Query])
		},
		stream: func(sc Scenario, rr *repResult, emit emitFunc) {
			bucket := sc.TrafficBucket.Seconds()
			emitSeries(emit, "connect-rate", rr.ConnRate, 0, bucket)
			emitSeries(emit, "query-rate", rr.QueryRate, 0, bucket)
		},
	},

	// Radio layer: frames on the air per node.
	{
		name: "radio",
		collect: func(sc Scenario, net *manet.Network, rr *repResult) {
			for i := 0; i < sc.NumNodes; i++ {
				st := net.Medium.Stats(i)
				rr.RxFrames = append(rr.RxFrames, float64(st.RxFrames))
				rr.TxFrames = append(rr.TxFrames, float64(st.TxFrames))
			}
		},
		pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.RxFrames = poolAll(reps, func(rr *repResult) []float64 { return rr.RxFrames })
			res.TxFrames = poolAll(reps, func(rr *repResult) []float64 { return rr.TxFrames })
		},
		render: func(w io.Writer, r *Result) {
			fmt.Fprintf(w, "radio frames per node: rx %s, tx %s\n", r.RxFrames, r.TxFrames)
		},
		stream: func(sc Scenario, rr *repResult, emit emitFunc) {
			t := sc.Duration.Seconds()
			emit(t, "rx-frames", sum(rr.RxFrames))
			emit(t, "tx-frames", sum(rr.TxFrames))
		},
	},

	// Routing layer: the unified netif.Stats effort counters.
	{
		name: "route",
		collect: func(sc Scenario, net *manet.Network, rr *repResult) {
			rr.Routing = net.RoutingStats()
		},
		pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.Routing = &RoutingStats{Protocol: sc.Routing.String()}
			for _, c := range routingCounters {
				*c.pooled(res.Routing) = poolAll(reps, func(rr *repResult) []float64 {
					vals := make([]float64, len(rr.Routing))
					for i := range rr.Routing {
						vals[i] = float64(c.get(&rr.Routing[i]))
					}
					return vals
				})
			}
		},
		render: func(w io.Writer, r *Result) {
			if rt := r.Routing; rt != nil {
				fmt.Fprintf(w, "routing (%s): ctrl %.1f+%.1f, bcast %.1f+%.1f per node (orig+relay), %.2f ctrl/delivered, %.1f%% send failures\n",
					rt.Protocol, rt.CtrlOrig.Mean, rt.CtrlRelayed.Mean,
					rt.BcastOrig.Mean, rt.BcastRelayed.Mean,
					rt.ControlPerDelivered(), 100*rt.SendFailRate())
			}
		},
		stream: func(sc Scenario, rr *repResult, emit emitFunc) {
			t := sc.Duration.Seconds()
			for _, c := range routingCounters {
				var total float64
				for i := range rr.Routing {
					total += float64(c.get(&rr.Routing[i]))
				}
				emit(t, c.name, total)
			}
		},
	},

	// Overlay graph snapshots (filled by the snapshot ticker during the
	// run, so there is nothing to collect at the horizon).
	{
		name: "overlay",
		pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.Overlay = OverlayStats{
				Clustering:       poolAll(reps, func(rr *repResult) []float64 { return rr.Clust }),
				PathLength:       poolAll(reps, func(rr *repResult) []float64 { return rr.PathLen }),
				LargestComponent: poolAll(reps, func(rr *repResult) []float64 { return rr.Largest }),
				MeanDegree:       poolAll(reps, func(rr *repResult) []float64 { return rr.MeanDeg }),
			}
			res.Overlay.Samples = res.Overlay.Clustering.N
			res.AliveSeries = poolSeries(reps, func(rr *repResult) []float64 { return rr.Alive })
			res.DegreeSeries = poolSeries(reps, func(rr *repResult) []float64 { return rr.DegSeries })
		},
		render: func(w io.Writer, r *Result) {
			if r.Overlay.Samples > 0 {
				fmt.Fprintf(w, "overlay: clustering %s, pathlength %s, largest component %s, degree %s\n",
					r.Overlay.Clustering, r.Overlay.PathLength,
					r.Overlay.LargestComponent, r.Overlay.MeanDegree)
			}
		},
		stream: func(sc Scenario, rr *repResult, emit emitFunc) {
			period := sc.SnapshotEvery.Seconds() // snapshot i is taken at (i+1)·period
			emitSeries(emit, "largest-comp", rr.Largest, 1, period)
			emitSeries(emit, "clustering", rr.Clust, 1, period)
			emitSeries(emit, "alive", rr.Alive, 1, period)
			emitSeries(emit, "mean-degree", rr.DegSeries, 1, period)
		},
	},

	// Energy model: per-node joules and battery deaths.
	{
		name: "energy",
		collect: func(sc Scenario, net *manet.Network, rr *repResult) {
			for i := 0; i < sc.NumNodes; i++ {
				tx, rx := net.Medium.Battery(i).Spent()
				rr.Energy = append(rr.Energy, tx+rx)
			}
			if sc.Energy.Capacity > 0 {
				for i := 0; i < sc.NumNodes; i++ {
					if net.Medium.Battery(i).Empty() {
						rr.Deaths++
					}
				}
			}
		},
		pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.Deaths = poolEach(reps, func(rr *repResult) float64 { return rr.Deaths })
			res.EnergySpent = poolAll(reps, func(rr *repResult) []float64 { return rr.Energy })
		},
		render: func(w io.Writer, r *Result) {
			if r.Scenario.Energy.Capacity > 0 {
				fmt.Fprintf(w, "energy: spent/node %s J, deaths/rep %s\n", r.EnergySpent, r.Deaths)
			}
		},
		stream: func(sc Scenario, rr *repResult, emit emitFunc) {
			if sc.Energy.Capacity <= 0 {
				return
			}
			t := sc.Duration.Seconds()
			emit(t, "spent-joules", sum(rr.Energy))
			emit(t, "deaths", rr.Deaths)
		},
	},

	// Overlay connection sessions: lifetimes of closed links.
	{
		name: "sessions",
		collect: func(sc Scenario, net *manet.Network, rr *repResult) {
			rr.Lifetimes = net.Collector.Lifetimes()
		},
		pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.ConnLifetime = poolAll(reps, func(rr *repResult) []float64 { return rr.Lifetimes })
		},
		render: func(w io.Writer, r *Result) {
			if r.ConnLifetime.N > 0 {
				fmt.Fprintf(w, "connection lifetime: %s s over %d closed links\n",
					r.ConnLifetime, r.ConnLifetime.N)
			}
		},
	},

	// Fault resilience: the periodic health telemetry and per-fault
	// recovery metrics. WriteResilience is its detailed report.
	{
		name: "resilience",
		collect: func(sc Scenario, net *manet.Network, rr *repResult) {
			rr.Health = net.Collector.Health()
		},
		pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.Resilience = computeResilience(sc, reps)
		},
		render: func(w io.Writer, r *Result) {
			if res := r.Resilience; res != nil {
				for _, ev := range res.Events {
					fmt.Fprintf(w, "fault %s: baseline %.2f, trough %.2f, reheal %.1f s (%.0f%% of reps), residual %.3f, cost %.1f msgs/member\n",
						ev.Label, ev.Baseline.Mean, ev.Trough.Mean,
						ev.RehealSeconds.Mean, 100*ev.RehealedFraction,
						ev.ResidualDisconnect.Mean, ev.RecoveryMessages.Mean)
				}
			}
		},
		stream: func(sc Scenario, rr *repResult, emit emitFunc) {
			for _, h := range rr.Health {
				t := h.At.Seconds()
				emit(t, "largest-comp", h.LargestComp)
				emit(t, "links", float64(h.Links))
				emit(t, "connect-received", float64(h.Received[telemetry.Connect]))
			}
		},
	},

	// Workload demand engine: the conservation ledger and latency
	// distributions. WriteWorkload is its detailed report.
	{
		name: "workload",
		collect: func(sc Scenario, net *manet.Network, rr *repResult) {
			if net.Demand != nil {
				t := net.Demand.Snapshot()
				rr.Workload = &t
			}
			rr.Churnit = float64(net.ChurnEvents())
		},
		pool: func(sc Scenario, reps []*repResult, res *Result) {
			res.Workload = aggregateWorkload(reps)
		},
		render: func(w io.Writer, r *Result) {
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
		stream: func(sc Scenario, rr *repResult, emit emitFunc) {
			if rr.Workload == nil {
				return
			}
			t := sc.Duration.Seconds()
			for _, c := range workloadCounters {
				emit(t, c.name, c.get(rr))
			}
		},
	},

	// File search outcomes: the per-file distance/answer curves of
	// Figures 5–6. Renders last: the closing "queries:" line.
	{
		name: "search",
		collect: func(sc Scenario, net *manet.Network, rr *repResult) {
			rr.Requests = net.Collector.Requests()
		},
		pool: func(sc Scenario, reps []*repResult, res *Result) {
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
		render: func(w io.Writer, r *Result) {
			found, reqs := 0.0, 0
			for _, fc := range r.PerFile {
				reqs += fc.Requests
				found += fc.FoundRate * float64(fc.Requests)
			}
			if reqs > 0 {
				fmt.Fprintf(w, "queries: %d requests, %.1f%% found\n", reqs, 100*found/float64(reqs))
			}
		},
		stream: func(sc Scenario, rr *repResult, emit emitFunc) {
			found := 0
			for _, q := range rr.Requests {
				if q.Found {
					found++
				}
			}
			t := sc.Duration.Seconds()
			emit(t, "requests", float64(len(rr.Requests)))
			emit(t, "found", float64(found))
		},
	},
}

// streamRep emits every section's time series for one replication, in
// list order, stamping the replication index and the section name onto
// each point.
func streamRep(sc Scenario, rep int, rr *repResult, sink MetricsSink) {
	for _, s := range sections {
		if s.stream == nil {
			continue
		}
		s.stream(sc, rr, func(t float64, name string, value float64) {
			sink.Emit(telemetry.Point{Rep: rep, T: t, Section: s.name, Name: name, Value: value})
		})
	}
}

// The three pooling shapes. Every pooled quantity of a Result is one of
// them applied to a field of repResult, and SelfAudit's pooled-N audit
// (auditPooledN) checks the sample count each implies.

// poolAll summarizes all samples of all replications — per node, per
// snapshot, per closed link.
func poolAll(reps []*repResult, samples func(*repResult) []float64) stats.Summary {
	var all []float64
	for _, rr := range reps {
		all = append(all, samples(rr)...)
	}
	return stats.Summarize(all)
}

// poolEach summarizes one sample per replication.
func poolEach(reps []*repResult, sample func(*repResult) float64) stats.Summary {
	each := make([]float64, len(reps))
	for i, rr := range reps {
		each[i] = sample(rr)
	}
	return stats.Summarize(each)
}

// poolSeries averages a per-replication series rank-wise over the
// replications that recorded it; nil when none did.
func poolSeries(reps []*repResult, series func(*repResult) []float64) []float64 {
	recorded := make([][]float64, 0, len(reps))
	for _, rr := range reps {
		if s := series(rr); len(s) > 0 {
			recorded = append(recorded, s)
		}
	}
	return stats.MeanSeries(recorded)
}

// emitSeries streams a series sampled every step seconds, its first
// value at first·step.
func emitSeries(emit emitFunc, name string, values []float64, first int, step float64) {
	for i, v := range values {
		emit(float64(first+i)*step, name, v)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// routingCounters names the routing layer's effort counters once, in
// netif.Stats declaration order: the streamed point name, the per-node
// counter, and the Summary of RoutingStats it pools into (one sample per
// node per replication). The route section's pool and stream hooks and
// auditPooledN all walk this table.
var routingCounters = [...]struct {
	name   string
	get    func(*netif.Stats) uint64
	pooled func(*RoutingStats) *stats.Summary
}{
	{"ctrl-orig", func(s *netif.Stats) uint64 { return s.CtrlOrig }, func(r *RoutingStats) *stats.Summary { return &r.CtrlOrig }},
	{"ctrl-relayed", func(s *netif.Stats) uint64 { return s.CtrlRelayed }, func(r *RoutingStats) *stats.Summary { return &r.CtrlRelayed }},
	{"bcast-orig", func(s *netif.Stats) uint64 { return s.BcastOrig }, func(r *RoutingStats) *stats.Summary { return &r.BcastOrig }},
	{"bcast-relayed", func(s *netif.Stats) uint64 { return s.BcastRelayed }, func(r *RoutingStats) *stats.Summary { return &r.BcastRelayed }},
	{"data-sent", func(s *netif.Stats) uint64 { return s.DataSent }, func(r *RoutingStats) *stats.Summary { return &r.DataSent }},
	{"data-forwarded", func(s *netif.Stats) uint64 { return s.DataForwarded }, func(r *RoutingStats) *stats.Summary { return &r.DataForwarded }},
	{"data-dropped", func(s *netif.Stats) uint64 { return s.DataDropped }, func(r *RoutingStats) *stats.Summary { return &r.DataDropped }},
	{"delivered", func(s *netif.Stats) uint64 { return s.Delivered }, func(r *RoutingStats) *stats.Summary { return &r.Delivered }},
	{"discoveries", func(s *netif.Stats) uint64 { return s.Discoveries }, func(r *RoutingStats) *stats.Summary { return &r.Discoveries }},
	{"discover-failed", func(s *netif.Stats) uint64 { return s.DiscoverFailed }, func(r *RoutingStats) *stats.Summary { return &r.DiscoverFailed }},
	{"send-failed", func(s *netif.Stats) uint64 { return s.SendFailed }, func(r *RoutingStats) *stats.Summary { return &r.SendFailed }},
	{"dup-hits", func(s *netif.Stats) uint64 { return s.DupHits }, func(r *RoutingStats) *stats.Summary { return &r.DupHits }},
}

// workloadCounters names the per-replication workload counters once:
// the streamed point name (also the row label of WriteWorkload), the
// replication's count, and the Summary of WorkloadStats it pools into
// (one sample per replication). The first workloadLedgerRows are the
// demand engine's conservation ledger; churn-events is counted by the
// network and reported on its own line. The workload section's stream
// hook, aggregateWorkload, WriteWorkload and auditPooledN all walk
// this table; get is called only on replications that ran a plan.
var workloadCounters = [...]struct {
	name   string
	get    func(*repResult) float64
	pooled func(*WorkloadStats) *stats.Summary
}{
	{"offered", func(rr *repResult) float64 { return float64(rr.Workload.Offered) }, func(w *WorkloadStats) *stats.Summary { return &w.Offered }},
	{"retries", func(rr *repResult) float64 { return float64(rr.Workload.Retries) }, func(w *WorkloadStats) *stats.Summary { return &w.Retries }},
	{"issued", func(rr *repResult) float64 { return float64(rr.Workload.Issued) }, func(w *WorkloadStats) *stats.Summary { return &w.Issued }},
	{"resolved", func(rr *repResult) float64 { return float64(rr.Workload.Resolved) }, func(w *WorkloadStats) *stats.Summary { return &w.Resolved }},
	{"expired", func(rr *repResult) float64 { return float64(rr.Workload.Expired) }, func(w *WorkloadStats) *stats.Summary { return &w.Expired }},
	{"aborted", func(rr *repResult) float64 { return float64(rr.Workload.Aborted) }, func(w *WorkloadStats) *stats.Summary { return &w.Aborted }},
	{"in-flight", func(rr *repResult) float64 { return float64(rr.Workload.InFlight) }, func(w *WorkloadStats) *stats.Summary { return &w.InFlight }},
	{"churn-events", func(rr *repResult) float64 { return rr.Churnit }, func(w *WorkloadStats) *stats.Summary { return &w.ChurnEvents }},
}

const workloadLedgerRows = 7

// aggregateWorkload pools the demand telemetry: one sample per
// replication for each counter, pooled latency distributions, and the
// repair-cost-per-churn-event ratio derived from connect-class message
// totals. Nil when no replication ran a workload plan.
func aggregateWorkload(reps []*repResult) *WorkloadStats {
	var ran []*repResult
	for _, rr := range reps {
		if rr.Workload != nil {
			ran = append(ran, rr)
		}
	}
	if len(ran) == 0 {
		return nil
	}
	ws := &WorkloadStats{
		TTFR:       poolAll(ran, func(rr *repResult) []float64 { return rr.Workload.TTFR }),
		Completion: poolAll(ran, func(rr *repResult) []float64 { return rr.Workload.Completion }),
	}
	for _, c := range workloadCounters {
		*c.pooled(ws) = poolEach(ran, c.get)
	}
	var offered, resolved, connect, churn float64
	classNodes := map[string][]float64{}
	classIssued := map[string][]float64{}
	var classOrder []string
	for _, rr := range ran {
		offered += float64(rr.Workload.Offered)
		resolved += float64(rr.Workload.Resolved)
		churn += rr.Churnit
		connect += sum(rr.Totals[telemetry.Connect])
		for _, c := range rr.Workload.Classes {
			if _, seen := classNodes[c.Name]; !seen {
				classOrder = append(classOrder, c.Name)
			}
			classNodes[c.Name] = append(classNodes[c.Name], float64(c.Nodes))
			classIssued[c.Name] = append(classIssued[c.Name], float64(c.Issued))
		}
	}
	ws.SuccessRate = safeRatio(resolved, offered)
	ws.RepairPerChurn = safeRatio(connect, churn)
	for _, name := range classOrder {
		ws.Classes = append(ws.Classes, WorkloadClassStats{
			Name:   name,
			Nodes:  stats.Summarize(classNodes[name]),
			Issued: stats.Summarize(classIssued[name]),
		})
	}
	return ws
}

// WriteWorkload emits the demand telemetry of a workload-driven run as
// TSV: the conservation ledger per replication, the derived success
// rate, the pooled latency distributions, the churn-repair cost and the
// per-class breakdown. No-op for runs without a workload plan.
func WriteWorkload(w io.Writer, r *Result) error {
	ws := r.Workload
	if ws == nil {
		return nil
	}
	fmt.Fprintf(w, "# demand telemetry (%s): per-replication ledger\n", r.Scenario.Algorithm)
	fmt.Fprintln(w, "counter\tmean\tstddev\tmin\tmax")
	for _, c := range workloadCounters[:workloadLedgerRows] {
		s := c.pooled(ws)
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.0f\t%.0f\n", c.name, s.Mean, s.StdDev, s.Min, s.Max)
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

// WriteResilience emits the resilience telemetry of a fault-injected
// run: the health time series as TSV followed by one row per scripted
// fault with its recovery telemetry. No-op for runs without telemetry.
func WriteResilience(w io.Writer, r *Result) error {
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

// manifestWire is the versioned wire form of the section list, stored
// in every checkpoint so that resume can refuse a file written by a
// binary with a different list, which would have collected in a
// different order. TestSectionManifest pins its bytes: a change to the
// list or to this encoding leaves every checkpoint written before it
// unresumable, so it has to show up as an edit of that test.
type manifestWire struct {
	Version  int      `json:"version"`
	Sections []string `json:"sections"`
}

// manifestVersion bumps when the manifest encoding itself changes.
const manifestVersion = 1

func sectionNames() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return names
}

// sectionsManifest returns this binary's manifest.
func sectionsManifest() []byte {
	b, err := json.Marshal(manifestWire{Version: manifestVersion, Sections: sectionNames()})
	if err != nil {
		panic(err) // unreachable: json.Marshal cannot fail on a struct of an int and strings
	}
	return b
}

// checkSectionsManifest verifies that a manifest read from a checkpoint
// matches this binary's section list, describing the first difference.
func checkSectionsManifest(b []byte) error {
	var m manifestWire
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("telemetry manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("telemetry manifest version %d, want %d", m.Version, manifestVersion)
	}
	names := sectionNames()
	if len(m.Sections) != len(names) {
		return fmt.Errorf("telemetry manifest has %d sections %v, this binary has %d %v",
			len(m.Sections), m.Sections, len(names), names)
	}
	for i, n := range names {
		if m.Sections[i] != n {
			return fmt.Errorf("telemetry manifest section %d is %q, this binary has %q", i, m.Sections[i], n)
		}
	}
	return nil
}
