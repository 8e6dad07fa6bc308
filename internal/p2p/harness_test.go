package p2p

import (
	"fmt"
	"testing"

	"manetp2p/internal/aodv"
	"manetp2p/internal/geom"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
)

// world assembles servents over a shared medium for white-box protocol
// tests. Entries of svs may be nil: those nodes relay at the ad-hoc
// layer but do not participate in the overlay.
type world struct {
	s      *sim.Sim
	med    *radio.Medium
	rts    []*aodv.Router
	svs    []*Servent
	col    *telemetry.Collector
	ledger *QueryLedger
}

// worldSpec configures newWorld.
type worldSpec struct {
	seed   int64
	pts    []geom.Point
	member []bool // nil = all members
	alg    Algorithm
	par    Params // zero = DefaultParams
	files  [][]bool
	quals  []float64
	opts   func(i int, o *Options) // optional per-node tweaks
}

func newWorld(t *testing.T, spec worldSpec) *world {
	t.Helper()
	if spec.par == (Params{}) {
		spec.par = DefaultParams()
	}
	s := sim.New(spec.seed)
	med, err := radio.NewMedium(s, radio.Config{
		Arena:    geom.Rect{W: 300, H: 300},
		Range:    10,
		NumNodes: len(spec.pts),
		Latency:  2 * sim.Millisecond,
		Jitter:   sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := route.NewPlane(s, med)
	w := &world{
		s:      s,
		med:    med,
		rts:    make([]*aodv.Router, len(spec.pts)),
		svs:    make([]*Servent, len(spec.pts)),
		col:    telemetry.NewCollector(len(spec.pts)),
		ledger: NewQueryLedger(len(spec.pts)),
	}
	for i, p := range spec.pts {
		rt := aodv.NewRouter(i, pl, aodv.DefaultConfig())
		w.rts[i] = rt
		med.Join(i, p, rt.HandleFrame)
		if spec.member != nil && !spec.member[i] {
			continue
		}
		opt := Options{Collector: w.col, Ledger: w.ledger, RNG: s.NewRand(), NoQueries: true}
		if spec.files != nil {
			opt.Files = spec.files[i]
			opt.NoQueries = false
		}
		if spec.quals != nil {
			opt.Qualifier = spec.quals[i]
		}
		if spec.opts != nil {
			spec.opts(i, &opt)
		}
		sv := NewServent(i, s, rt, spec.par, spec.alg, opt)
		rt.OnUnicast(sv.HandleUnicast)
		rt.OnBroadcast(sv.HandleBroadcast)
		w.svs[i] = sv
	}
	return w
}

func (w *world) joinAll() {
	for _, sv := range w.svs {
		if sv != nil {
			sv.Join()
		}
	}
}

// run advances the simulation by d.
func (w *world) run(d sim.Time) { w.s.Run(w.s.Now() + d) }

// linePts returns n points spaced 8 m apart (range 10 m: a chain).
func linePts(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: 5 + 8*float64(i), Y: 150}
	}
	return pts
}

// cliquePts returns n points all mutually in range.
func cliquePts(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: 150 + float64(i%3)*2, Y: 150 + float64(i/3)*2}
	}
	return pts
}

// forceLink installs a symmetric established connection, bypassing the
// handshake — used to build known overlays for query tests.
func forceLink(a, b *Servent, random bool) {
	a.installConn(conn{peer: b.id, random: random, initiator: true})
	b.installConn(conn{peer: a.id, random: random, initiator: false})
}

// checkSymmetric verifies that (for symmetric algorithms) every live
// connection has a live counterpart, with exactly one initiator.
func (w *world) checkSymmetric(t *testing.T) {
	t.Helper()
	for _, sv := range w.svs {
		if sv == nil {
			continue
		}
		for peer, c := range sv.conns { // commutative: per-link symmetry check
			other := w.svs[peer]
			if other == nil {
				t.Errorf("node %d connected to non-member %d", sv.id, peer)
				continue
			}
			oc, ok := other.conns[sv.id]
			if !ok {
				t.Errorf("asymmetric link: %d has %d, reverse missing", sv.id, peer)
				continue
			}
			if c.initiator == oc.initiator {
				t.Errorf("link %d<->%d: both/neither initiator", sv.id, peer)
			}
			if c.random != oc.random {
				t.Errorf("link %d<->%d: random flag mismatch", sv.id, peer)
			}
		}
	}
}

// checkCapacity verifies the algorithm's own invariant rules — its
// connection caps, flags and roles — on every servent.
func (w *world) checkCapacity(t *testing.T, par Params) {
	t.Helper()
	var v View
	for _, sv := range w.svs {
		if sv == nil {
			continue
		}
		sv.Inspect(&v)
		sv.alg.CheckView(&v, par, func(rule string, peer int, format string, args ...any) {
			t.Errorf("node %d: %s (peer %d): %s", sv.id, rule, peer, fmt.Sprintf(format, args...))
		})
		if _, self := sv.conns[sv.id]; self {
			t.Errorf("node %d connected to itself", sv.id)
		}
	}
}
