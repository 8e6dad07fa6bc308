package manetp2p

import (
	"runtime"
	"sync"

	"manetp2p/internal/graphs"
	"manetp2p/internal/manet"
	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
	"manetp2p/internal/stats"
	"manetp2p/internal/telemetry"
	"manetp2p/internal/workload"
)

// FileCurve is one point of Figures 5–6: per file rank, the average
// minimum distance to a holder and the average number of answers.
type FileCurve struct {
	File      int           // rank, 0 = most popular
	Requests  int           // requests issued for this file (all reps)
	FoundRate float64       // fraction of requests answered at all
	Distance  stats.Summary // min p2p hops to a holder, found requests
	AdhocDist stats.Summary // min ad-hoc hops to a holder, found requests
	Answers   stats.Summary // answers per request, all requests
}

// OverlayStats aggregates overlay-graph snapshots for the small-world
// analysis (§6.1.2 and the paper's closing discussion).
type OverlayStats struct {
	Samples          int
	Clustering       stats.Summary
	PathLength       stats.Summary
	LargestComponent stats.Summary // fraction of members
	MeanDegree       stats.Summary
}

// RoutingStats pools the per-node routing-effort counters — the unified
// netif.Stats contract every routing substrate implements — over all
// replications: one Summary per counter, with NumNodes × Replications
// samples behind each. This is what lets `sweep -axis routing` compare
// what the routing layer spent, not just what the overlay received.
type RoutingStats struct {
	Protocol       string        // routing substrate name (AODV, DSR, ...)
	CtrlOrig       stats.Summary // protocol control frames originated per node
	CtrlRelayed    stats.Summary // protocol control frames re-forwarded
	BcastOrig      stats.Summary // controlled broadcasts originated
	BcastRelayed   stats.Summary // controlled broadcasts re-forwarded
	DataSent       stats.Summary // locally originated data attempts
	DataForwarded  stats.Summary // transit data relayed
	DataDropped    stats.Summary // data abandoned
	Delivered      stats.Summary // upper-layer deliveries dispatched
	Discoveries    stats.Summary // route discoveries started
	DiscoverFailed stats.Summary // discoveries abandoned
	SendFailed     stats.Summary // payloads reported undeliverable
	DupHits        stats.Summary // duplicate-cache suppressions
}

// safeRatio divides a by b, returning 0 for a zero denominator so every
// derived ratio stays finite — no NaN or ±Inf ever reaches a report,
// however degenerate the replications (nothing delivered, nothing
// offered, no churn). One shared guard (telemetry.SafeRatio) backs all
// derived ratios: routing overhead, workload success, churn repair.
func safeRatio(a, b float64) float64 { return telemetry.SafeRatio(a, b) }

// ControlPerDelivered derives the headline overhead ratio: control-plane
// frames (protocol signalling + controlled-broadcast relays) per
// upper-layer delivery. Zero when nothing was delivered.
func (r *RoutingStats) ControlPerDelivered() float64 {
	if r == nil {
		return 0
	}
	ctrl := r.CtrlOrig.Mean + r.CtrlRelayed.Mean + r.BcastOrig.Mean + r.BcastRelayed.Mean
	return safeRatio(ctrl, r.Delivered.Mean)
}

// SendFailRate derives the fraction of locally originated data attempts
// reported undeliverable. Zero when nothing was sent.
func (r *RoutingStats) SendFailRate() float64 {
	if r == nil {
		return 0
	}
	return safeRatio(r.SendFailed.Mean, r.DataSent.Mean)
}

// WorkloadClassStats is one session class's pooled outcome.
type WorkloadClassStats struct {
	Name   string
	Nodes  stats.Summary // class population per replication
	Issued stats.Summary // queries issued by the class per replication
}

// WorkloadStats aggregates the demand engine's telemetry over all
// replications: the conservation ledger (one Summary per counter, one
// sample per replication), the derived success rate, pooled latency
// distributions, and the churn-repair cost.
type WorkloadStats struct {
	Offered  stats.Summary // demand arrivals (first offers, not retries)
	Retries  stats.Summary // arrivals while earlier demand was unserved
	Issued   stats.Summary // queries actually sent
	Resolved stats.Summary // demands answered
	Expired  stats.Summary // query windows closed unanswered
	Aborted  stats.Summary // windows cut short by churn/crash/death
	InFlight stats.Summary // windows still open at the horizon

	// SuccessRate is resolved demand over offered demand across all
	// replications — the success rate under churn.
	SuccessRate float64

	TTFR       stats.Summary // seconds from query issue to first answer
	Completion stats.Summary // seconds from demand arrival to first answer

	ChurnEvents stats.Summary // churn departures per replication
	// RepairPerChurn is the overlay repair cost: connect-class messages
	// received per churn departure, across all replications. Zero when
	// nothing churned.
	RepairPerChurn float64

	Classes []WorkloadClassStats
}

// Result aggregates a scenario's replications.
type Result struct {
	Scenario Scenario

	// Figures 5–6: indexed by file rank.
	PerFile []FileCurve

	// Figures 7–12: per-member received-message counts, decreasingly
	// ordered within each replication, then averaged rank-wise.
	ConnectSeries []float64
	PingSeries    []float64
	PongSeries    []float64
	QuerySeries   []float64
	HitSeries     []float64

	// Per-node totals pooled over replications.
	Totals [telemetry.NumClasses]stats.Summary

	// Network-layer effort.
	RxFrames stats.Summary // radio frames received per node
	TxFrames stats.Summary // radio frames transmitted per node

	// Extensions.
	Overlay      OverlayStats
	Deaths       stats.Summary // battery deaths per replication
	EnergySpent  stats.Summary // joules per node (tx+rx), finite-energy runs
	ConnLifetime stats.Summary // seconds a connection survives (closed ones)

	// Time series sampled every SnapshotEvery (empty when snapshots are
	// off): fraction of members alive, mean overlay degree — the
	// network-lifetime curves of the churn/energy studies.
	AliveSeries  []float64
	DegreeSeries []float64

	// Message-rate series per TrafficBucket (empty when off): messages
	// received per member per bucket — shows the reconfiguration burst
	// at network formation and the steady state after it.
	ConnectTraffic []float64
	QueryTraffic   []float64

	// Resilience telemetry and per-fault recovery metrics (nil when
	// sampling is off — no Faults plan and no HealthEvery).
	Resilience *Resilience

	// Routing pools the routing-layer effort counters of every node
	// over all replications. Omitted from fixtures generated before the
	// unified netif.Stats contract existed (goldenMarshal strips it);
	// populated for every routing substrate since.
	Routing *RoutingStats `json:",omitempty"`

	// Invariants reports the runtime invariant checker's findings (nil
	// when Scenario.Invariants is off).
	Invariants *InvariantReport `json:",omitempty"`

	// Workload reports the demand engine's telemetry (nil when
	// Scenario.Workload is unset, keeping older fixtures byte-identical).
	Workload *WorkloadStats `json:",omitempty"`
}

// repResult carries one replication's raw measurements to aggregation.
// The fields are exported because a checkpoint stores a finished
// replication as the gob encoding of this struct (checkpoint.go): a new
// measurement is declared here once and travels through the file with
// no further code but a bump of ckptLayout, which TestCheckpointLayout
// demands. err stays unexported and so out of gob.
type repResult struct {
	Requests   telemetry.Store[telemetry.Outcome] // the request log, shared with the Collector
	Totals     [telemetry.NumClasses][]float64    // per member, in membership order
	RxFrames   []float64
	TxFrames   []float64
	Clust      []float64
	PathLen    []float64
	Largest    []float64
	MeanDeg    []float64
	Alive      []float64 // per snapshot: fraction of members joined
	DegSeries  []float64 // per snapshot: mean overlay degree
	ConnRate   []float64 // per bucket: connect msgs per member
	QueryRate  []float64 // per bucket: query msgs per member
	Deaths     float64
	Energy     []float64
	Lifetimes  []float64
	Health     []telemetry.HealthSample // resilience telemetry samples
	Routing    []netif.Stats            // per-node routing-effort counters
	Checked    bool                     // the invariant checker validated this replication
	ViolTotal  int                      // invariant breaches detected (including past the cap)
	Violations []InvariantViolation     // recorded breaches, detection order
	Workload   *workload.Telemetry      // demand telemetry (nil without a plan)
	Churnit    float64                  // churn departures executed
	err        error
}

// Pool is a shared replication-worker budget. Every scenario run
// draws its parallelism from the pool's slots, so several scenarios
// running concurrently (the sweep grid) together never exceed the
// budget — instead of each claiming its own GOMAXPROCS workers. A Pool
// is safe for concurrent use by multiple goroutines.
type Pool struct {
	slots chan struct{}
}

// NewPool creates a pool with the given number of worker slots;
// workers <= 0 defaults to GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, workers)}
}

// Outputs names what a run writes besides its Result. The zero value
// writes nothing.
type Outputs struct {
	// Checkpoint, when set, is the run's checkpoint file, rewritten
	// atomically each time a replication finishes. If it exists it must
	// hold a checkpoint of the same scenario — anything else is an error
	// and leaves the file untouched — and its completed replications are
	// loaded instead of executed, so re-running an interrupted command
	// continues it (DESIGN.md §11).
	Checkpoint string
	// Sink, when non-nil, receives every telemetry section's
	// per-replication time series once the last replication finishes
	// (see metrics.go). It is not closed.
	Sink MetricsSink
}

// Run executes all replications of the scenario under the pool's
// budget and aggregates the paper's telemetry. Replications are
// deterministic regardless of scheduling (each seeds its own RNG
// streams and lands in its own result slot), so a pooled run returns
// exactly what a sequential one does, and so does a checkpointed or
// resumed one. The pool's budget is the only concurrency cap:
// Scenario.Workers sizes the pool manetp2p.Run makes and nothing else.
func (p *Pool) Run(sc Scenario, out Outputs) (*Result, error) {
	var ckpt *ckptState
	if out.Checkpoint != "" {
		var err error
		if ckpt, err = openCheckpoint(out.Checkpoint, sc); err != nil {
			return nil, err
		}
	}
	reps, err := p.runReps(sc, manet.Options{}, ckpt)
	if err != nil {
		return nil, err
	}
	res := aggregate(sc, reps)
	if out.Sink != nil { // after the last replication, in order: see metrics.go
		for i, rr := range reps {
			streamRep(sc, i, rr, out.Sink)
		}
	}
	return res, nil
}

// runReps executes all replications under the pool's budget, each built
// with opt, and returns their raw per-replication records. With a
// checkpoint, replications it already holds are taken from it instead
// of executed, and each executed one is stored as it finishes.
func (p *Pool) runReps(sc Scenario, opt manet.Options, ckpt *ckptState) ([]*repResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	reps := make([]*repResult, sc.Replications)
	if ckpt != nil {
		copy(reps, ckpt.reps) // before any worker stores
	}
	var wg sync.WaitGroup
	for r := 0; r < sc.Replications; r++ {
		if reps[r] != nil {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p.slots <- struct{}{}
			defer func() { <-p.slots }()
			reps[r] = runReplication(sc, r, opt, nil)
			if ckpt != nil && reps[r].err == nil {
				reps[r].err = ckpt.store(r, reps[r])
			}
		}(r)
	}
	wg.Wait()

	for _, rr := range reps {
		if rr.err != nil {
			return nil, rr.err
		}
	}
	return reps, nil
}

// Run executes all replications of the scenario concurrently, at most
// Scenario.Workers at a time, and aggregates the paper's telemetry.
func Run(sc Scenario) (*Result, error) {
	return NewPool(sc.Workers).Run(sc, Outputs{})
}

// runReplication builds replication rep with opt, instruments it and
// runs it to its horizon, then extracts its measurements: one walk over
// every section's collect hook (see telemetry_sections.go). The clock
// stops at each of cuts (ascending instants before the horizon) on the
// way: every leg is one Network.Run, which is exactly Simulation.Step,
// so SelfAudit can check that stepping a run moves no byte of its
// record. Run and SelfAudit pass the zero Options, and Run no cuts.
func runReplication(sc Scenario, rep int, opt manet.Options, cuts []Duration) *repResult {
	net, err := manet.Build(sc, rep, opt)
	if err != nil {
		return &repResult{err: err}
	}
	rr := new(repResult)
	if sc.SnapshotEvery > 0 {
		// One Analyzer per replication: after the first tick warms its
		// scratch, each snapshot is allocation-free (vs. rebuilding a
		// graphs.Graph — maps, per-node slices — every tick). The method
		// value is bound outside the closure so ticks don't re-allocate it.
		an := new(graphs.Analyzer)
		isMember := net.IsMember
		sim.NewTicker(net.Sim, sc.SnapshotEvery, func() {
			net.AppendOverlayAdjacency(&an.S)
			m := an.Analyze(isMember)
			rr.Clust = append(rr.Clust, m.Clustering)
			if m.Pairs > 0 {
				rr.PathLen = append(rr.PathLen, m.PathLength)
			}
			rr.Largest = append(rr.Largest, m.Largest)
			deg, members := 0, 0
			for _, id := range net.Members() {
				if sv := net.Servents[id]; sv != nil && sv.Joined() {
					deg += sv.ConnCount()
					members++
				}
			}
			if members > 0 {
				rr.MeanDeg = append(rr.MeanDeg, float64(deg)/float64(members))
				rr.DegSeries = append(rr.DegSeries, float64(deg)/float64(members))
			} else {
				rr.DegSeries = append(rr.DegSeries, 0)
			}
			rr.Alive = append(rr.Alive, float64(net.AliveMembers())/float64(len(net.Members())))
		})
	}
	for _, at := range cuts {
		net.Run(at - net.Sim.Now())
	}
	net.Run(sc.Duration - net.Sim.Now())
	for _, s := range sections {
		if s.collect != nil {
			s.collect(sc, net, rr)
		}
	}
	return rr
}

// aggregate folds replication results into a Result: one walk over
// every section's pool hook (see telemetry_sections.go) — there is no
// per-subsystem aggregation code here.
func aggregate(sc Scenario, reps []*repResult) *Result {
	res := &Result{Scenario: sc}
	for _, s := range sections {
		if s.pool != nil {
			s.pool(sc, reps, res)
		}
	}
	return res
}
