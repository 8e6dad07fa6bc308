package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"manetp2p"
	"manetp2p/internal/graphs"
	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
)

// The traced passes re-run replications the timed rounds already ran,
// so every end-to-end metric comes from untraced executions and the
// traced ones give the per-layer numbers and the tracing overhead.

// passA runs every replication once more under a CPU profile and folds
// the samples by layer. It returns CPU seconds per bucket, the sample
// count and the wall seconds spent inside manetp2p.Run.
func (r *run) passA() (cpu map[string]float64, samples int, wall float64, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, 0, fmt.Errorf("pass A: %w", err)
	}
	for i := range r.reps {
		ex := execute(r.w.scenario(r.reps[i]))
		r.verify(i, "pass A", ex)
		wall += ex.wall
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, 0, 0, fmt.Errorf("pass A: %w", err)
	}
	cpu, samples = foldByLayer(prof)
	return cpu, samples, wall, nil
}

// span aggregates the executions of one named span in one replication.
// Executions of one span never nest: the routers dispatch deliveries
// from the event loop, never from inside a handler (the conformance
// suite pins that).
type span struct {
	Count  int64   `json:"count"`
	TotalS float64 `json:"total_s"`
	MaxS   float64 `json:"max_s"`
	start  time.Time
}

func (s *span) begin() { s.start = time.Now() }

func (s *span) end() {
	d := time.Since(s.start).Seconds()
	s.Count++
	s.TotalS += d
	s.MaxS = max(s.MaxS, d)
}

// spanSet is one replication's spans by name, kept in memory and
// written out when the benchmark ends (-spans).
type spanSet map[string]*span

func (s spanSet) get(name string) *span {
	if s[name] == nil {
		s[name] = &span{}
	}
	return s[name]
}

// counts are the exact per-layer counters of one replication, read from
// public counters at the horizon. They repeat exactly for a fixed seed.
type counts struct {
	Events    uint64 // sim.Sim.Fired
	TxFrames  uint64
	RxFrames  uint64
	Attempted uint64 // deliveries attempted: gated + dropped + queued
	Lost      uint64 // dropped + gated + arrived at a down node
	Route     netif.Stats
	MsgsRecv  uint64 // overlay messages received, all classes
	Queries   uint64
	Found     uint64
	LiveHeap  uint64 // bytes live after a collection at the horizon
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.TxFrames += o.TxFrames
	c.RxFrames += o.RxFrames
	c.Attempted += o.Attempted
	c.Lost += o.Lost
	c.Route.Add(o.Route)
	c.MsgsRecv += o.MsgsRecv
	c.Queries += o.Queries
	c.Found += o.Found
	c.LiveHeap += o.LiveHeap
}

// traceReplication builds one replication with manetp2p.NewSimulation
// and steps it to its horizon. With hooks on, the benchmark's own code
// records spans around the calls into each layer: timing wrappers
// re-registered around the servents' receive handlers, and the snapshot
// ticker Run installs (same period, same analysis, same position in the
// event order). Neither draws randomness nor reorders another event.
func traceReplication(sc manetp2p.Scenario, hooks bool) (c counts, spans spanSet, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic in traced replication: %v", p)
		}
	}()
	spans = spanSet{}
	runtime.GC()

	build := spans.get("manet.build")
	build.begin()
	simu, err := manetp2p.NewSimulation(sc)
	build.end()
	if err != nil {
		return c, spans, err
	}
	net := simu.Net

	if hooks {
		recv := spans.get("p2p.recv")
		for i, sv := range net.Servents {
			if sv == nil {
				continue
			}
			sv := sv
			net.Routers[i].OnUnicast(func(d netif.Delivery) {
				recv.begin()
				sv.HandleUnicast(d)
				recv.end()
			})
			net.Routers[i].OnBroadcast(func(d netif.Delivery) {
				recv.begin()
				sv.HandleBroadcast(d)
				recv.end()
			})
		}
		if sc.SnapshotEvery > 0 {
			analyze := spans.get("graphs.analyze")
			an := new(graphs.Analyzer)
			isMember := net.IsMember
			sim.NewTicker(net.Sim, sc.SnapshotEvery, func() {
				analyze.begin()
				net.AppendOverlayAdjacency(&an.S)
				an.Analyze(isMember)
				analyze.end()
			})
		}
	}

	step := spans.get("sim.run")
	step.begin()
	simu.Step(sc.Duration)
	step.end()

	c.Events = net.Sim.Fired()
	for i := 0; i < net.Medium.NumNodes(); i++ {
		st := net.Medium.Stats(i)
		c.TxFrames += st.TxFrames
		c.RxFrames += st.RxFrames
		c.Attempted += st.Gated + st.Dropped + st.Queued
		c.Lost += st.Gated + st.Dropped + st.LostDown
	}
	for _, st := range net.RoutingStats() {
		c.Route.Add(st)
	}
	for class := 0; class < telemetry.NumClasses; class++ {
		c.MsgsRecv += net.Collector.TotalReceived(telemetry.Class(class))
	}
	for _, q := range net.Collector.Requests() {
		c.Queries++
		if q.Found {
			c.Found++
		}
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.LiveHeap = m.HeapAlloc
	runtime.KeepAlive(simu)
	return c, spans, err
}

// repSpans is one traced replication's spans, as written by -spans.
type repSpans struct {
	Workload string  `json:"workload"`
	Cell     string  `json:"cell"`
	Seed     int64   `json:"seed"`
	Spans    spanSet `json:"spans"`
}

// passB is pass B over the first seed of every cell.
type passB struct {
	counts   counts     // summed over the replications
	spans    spanSet    // summed likewise (max is the max)
	perRep   []repSpans // as recorded
	wall     float64    // traced wall: build + run
	untraced float64    // untraced wall of the same replications
}

// passB traces the first seed of every cell: spans around the layer
// boundaries and the exact counters. It proves at run time that the
// hooks changed nothing, by holding its frame and delivery counts to
// the pooled sums in the untraced Result of the same seed.
func (r *run) passB() passB {
	b := passB{spans: spanSet{}}
	for i := range r.w.cells { // the first pass: one replication per cell
		rp := r.reps[i]
		c, spans, err := traceReplication(r.w.scenario(rp), true)
		r.ops++
		first := r.first[i]
		switch {
		case err != nil:
			r.fail(rp, "pass B", err)
		case first.err == nil && (c.TxFrames != first.txFrames || c.RxFrames != first.rxFrames || c.Route.Delivered != first.delivered):
			r.fail(rp, "pass B", fmt.Errorf("hooks changed the run: tx/rx/delivered %d/%d/%d traced, %d/%d/%d untraced",
				c.TxFrames, c.RxFrames, c.Route.Delivered, first.txFrames, first.rxFrames, first.delivered))
		}
		b.counts.add(c)
		for name, s := range spans {
			t := b.spans.get(name)
			t.Count += s.Count
			t.TotalS += s.TotalS
			t.MaxS = max(t.MaxS, s.MaxS)
		}
		b.perRep = append(b.perRep, repSpans{r.w.name, r.w.cells[rp.cell].name, rp.seed, spans})
		b.wall += spans.get("manet.build").TotalS + spans.get("sim.run").TotalS
		b.untraced += r.bestWall(i)
	}
	return b
}
