package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/sim"
)

// freshNear is the reference the neighbour table is held to: the range
// query the medium made on every call before it kept lists.
func freshNear(m *Medium, id int) []int {
	if !m.up[id] {
		return nil
	}
	return m.grid.Near(nil, m.grid.Pos(id), m.cfg.Range, id)
}

// queuedSince returns the receptions queued under a sequence number
// above seq, in the order they were queued.
func queuedSince(m *Medium, seq uint64) []rec {
	var recs []rec
	m.wheel.each(func(r *rec) {
		if r.seq > seq {
			recs = append(recs, *r)
		}
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	return recs
}

// TestNeighbourTableMatchesFreshQuery drives a seeded interleaving of
// every call that reads or invalidates the neighbour table and, after
// every step, requires each node's view of it — Neighbors and Degree —
// to equal a fresh grid query element for element, in order (the order
// decides jitter draws and sequence numbers), and a down node's to be
// empty. A broadcast must queue exactly the fresh query's members, in
// its order, under their current join epochs. The arena is dense enough
// that some lists outgrow their share of the common backing array.
//
// Checked against mutations: sorting the list in the fill fails the
// order assertion; dropping the topo bump from Leave (or Join, or
// SetPos) fails the view assertion on the first step after one.
func TestNeighbourTableMatchesFreshQuery(t *testing.T) {
	const nodes = 64
	cfg := testConfig(nodes)
	cfg.Arena = geom.Rect{W: 40, H: 40}
	cfg.Jitter = sim.Millisecond
	s := sim.New(1)
	m := newTestMedium(t, s, cfg)
	share := cap(m.nbrs[0])
	rng := rand.New(rand.NewSource(19))
	point := func() geom.Point { return cfg.Arena.RandomPoint(rng) }
	pick := func(up bool) int { // a random node in the given state, or -1
		for _, id := range rng.Perm(nodes) {
			if m.up[id] == up {
				return id
			}
		}
		return -1
	}
	for id := 0; id < nodes*3/4; id++ {
		m.Join(id, point(), func(*Frame) {})
	}

	// send transmits and holds what was queued to the reference.
	send := func(what string, src, dst int) {
		t.Helper()
		var want []int
		switch {
		case dst == BroadcastAddr:
			want = freshNear(m, src)
		case m.InRange(src, dst):
			want = []int{dst}
		}
		seq := s.Seq()
		if n := m.Send(Frame{Src: src, Dst: dst, Size: 8}); n != len(want) {
			t.Fatalf("%s: Send returned %d, want %d", what, n, len(want))
		}
		recs := queuedSince(m, seq)
		if len(recs) != len(want) {
			t.Fatalf("%s: %d receptions queued, want %d", what, len(recs), len(want))
		}
		for i, r := range recs {
			if int(r.to) != want[i] || r.epoch != m.epoch[want[i]] {
				t.Fatalf("%s: reception %d goes to node %d under join epoch %d, a fresh query has node %d (epoch %d) there; want order %v",
					what, i, r.to, r.epoch, want[i], m.epoch[want[i]], want)
			}
		}
	}

	outgrew, coldSends := false, 0
	buf := make([]int, 0, nodes)
	for step := 0; step < 3000; step++ {
		var what string
		switch rng.Intn(9) {
		case 0:
			if id := pick(false); id >= 0 {
				what = fmt.Sprintf("Join(%d)", id)
				m.Join(id, point(), func(*Frame) {})
			}
		case 1:
			if id := pick(true); id >= 0 {
				what = fmt.Sprintf("Leave(%d)", id)
				m.Leave(id)
			}
		case 2:
			id := rng.Intn(nodes) // a down node's SetPos is a no-op
			what = fmt.Sprintf("SetPos(%d, moved)", id)
			m.SetPos(id, point())
		case 3:
			id := rng.Intn(nodes)
			what = fmt.Sprintf("SetPos(%d, unmoved)", id)
			topo, fills := m.topo, m.fills
			m.SetPos(id, m.Pos(id))
			if m.topo != topo || m.fills != fills {
				t.Fatalf("step %d: %s moved the epoch %d -> %d (fills %d -> %d)", step, what, topo, m.topo, fills, m.fills)
			}
		case 4:
			src := rng.Intn(nodes)
			what = fmt.Sprintf("broadcast from %d", src)
			send(what, src, BroadcastAddr)
		case 5:
			// A move with no check in between: the broadcast itself makes
			// the fill, and the filled list is the one it fans out over.
			if id, src := pick(true), pick(true); id >= 0 {
				what = fmt.Sprintf("SetPos(%d, moved) + broadcast from %d", id, src)
				m.SetPos(id, point())
				fills := m.fills
				send(what, src, BroadcastAddr)
				coldSends += int(m.fills - fills)
			}
		case 6:
			src, dst := rng.Intn(nodes), rng.Intn(nodes)
			what = fmt.Sprintf("unicast %d -> %d", src, dst)
			send(what, src, dst)
		case 7:
			id := rng.Intn(nodes)
			what = fmt.Sprintf("Neighbors(%d) appended to a prefix", id)
			got := m.Neighbors(append(buf[:0], -7), id)
			if got[0] != -7 || !slices.Equal(got[1:], freshNear(m, id)) {
				t.Fatalf("step %d: %s = %v, want -7 then %v", step, what, got, freshNear(m, id))
			}
		case 8:
			what = "run"
			s.Run(s.Now() + sim.Time(rng.Int63n(int64(4*sim.Millisecond))))
		}

		for id := 0; id < nodes; id++ {
			want := freshNear(m, id)
			if got := m.Neighbors(buf[:0], id); !slices.Equal(got, want) {
				t.Fatalf("step %d, after %s: Neighbors(%d) = %v, a fresh query gives %v (up %v)", step, what, id, got, want, m.up[id])
			}
			if got := m.Degree(id); got != len(want) {
				t.Fatalf("step %d, after %s: Degree(%d) = %d, want %d", step, what, id, got, len(want))
			}
			outgrew = outgrew || len(want) > share
		}
		if rules := auditMedium(m); len(rules) != 0 {
			t.Fatalf("step %d, after %s: audit reports %v", step, what, rules)
		}
	}
	if !outgrew {
		t.Error("no list outgrew its share of the backing array; the test lost its density")
	}
	if coldSends < 100 {
		t.Errorf("only %d broadcasts made their own fill; the test lost its cold sends", coldSends)
	}
}

// Between two movements a node's list is filled once, however many
// times it is used; setting a node to the position it already has is
// not a movement.
func TestNeighbourListFilledOncePerMovement(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(4))
	for id := 0; id < 4; id++ {
		m.Join(id, geom.Point{X: 50 + float64(id), Y: 50}, func(*Frame) {})
	}
	use := func(when string, wantFills uint64) {
		t.Helper()
		before := m.fills
		for i := 0; i < 20; i++ {
			if n := m.Send(Frame{Src: 0, Dst: BroadcastAddr, Size: 8}); n != 3 {
				t.Fatalf("%s: broadcast %d reached %d nodes, want 3", when, i, n)
			}
		}
		m.Neighbors(nil, 0)
		m.Degree(0)
		m.Send(Frame{Src: 0, Dst: 1, Size: 8}) // a unicast asks InRange, not the table
		if got := m.fills - before; got != wantFills {
			t.Fatalf("%s: %d fills, want %d", when, got, wantFills)
		}
	}
	use("after the joins", 1)
	m.SetPos(2, geom.Point{X: 52, Y: 51})
	use("after a movement", 1)
	m.SetPos(2, geom.Point{X: 52, Y: 51})
	m.SetPos(0, m.Pos(0))
	use("after SetPos to the current position", 0)
	m.Leave(3)
	m.Join(3, geom.Point{X: 53, Y: 50}, func(*Frame) {})
	use("after a leave and a join", 1)
	s.Run(sim.MaxTime)
	use("after receptions, with nothing moved", 0)
}

// A broadcast whose own transmit cost empties the sender's battery is
// transmitted (it counts in TxFrames) and heard by nobody: the receivers
// are looked up after the battery is debited.
func TestBroadcastEmptyingBatteryReachesNobody(t *testing.T) {
	cfg := testConfig(3)
	cfg.Energy = EnergyConfig{Capacity: 1.0, TxPerFrame: 0.4}
	s := sim.New(1)
	m := newTestMedium(t, s, cfg)
	var died []int
	var rx capture
	m.OnDeath(func(id int) { died = append(died, id) })
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 12, Y: 10}, rx.recv)
	m.Join(2, geom.Point{X: 10, Y: 12}, rx.recv)
	for i, want := range []int{2, 2, 0, 0} { // the third empties it, the fourth is from a down node
		if n := m.Send(Frame{Src: 0, Dst: BroadcastAddr, Size: 1}); n != want {
			t.Fatalf("broadcast %d returned %d, want %d", i, n, want)
		}
	}
	if got := m.InFlight(); got != 4 {
		t.Errorf("%d receptions in flight, want 4 (two broadcasts heard by two nodes)", got)
	}
	if st := m.Stats(0); st.TxFrames != 3 {
		t.Errorf("TxFrames = %d, want 3 (the emptying broadcast counts, the one after death does not)", st.TxFrames)
	}
	if len(died) != 1 || died[0] != 0 || m.Up(0) {
		t.Errorf("died = %v, up = %v; want node 0 dead", died, m.Up(0))
	}
	s.Run(sim.MaxTime)
	if len(rx.frames) != 4 || m.Stats(1).Queued != 2 || m.Stats(2).Queued != 2 {
		t.Errorf("%d frames received (queued %d and %d), want 4 (2 and 2)", len(rx.frames), m.Stats(1).Queued, m.Stats(2).Queued)
	}
}

// A LinkFilter may query the medium from inside a fan-out. Those queries
// fill other nodes' lists — here many outgrow their share of the backing
// array and reallocate — while the broadcast iterates the sender's list
// in place; set and order of receivers must equal an unfiltered twin's.
func TestQueryingLinkFilterLeavesFanOutAlone(t *testing.T) {
	const nodes = 40
	cfg := testConfig(nodes)
	cfg.Arena = geom.Rect{W: 25, H: 25}
	cfg.Jitter = sim.Millisecond
	type heard struct {
		at sim.Time
		to int
	}
	run := func(querying bool) (order []heard, fanout, outgrown int) {
		s := sim.New(9)
		m := newTestMedium(t, s, cfg)
		share := cap(m.nbrs[0])
		if querying {
			var buf []int
			m.SetLinkFilter(func(src, dst int) bool {
				m.Degree(dst)
				buf = m.Neighbors(buf[:0], src)
				return false
			})
		}
		rng := rand.New(rand.NewSource(4))
		for id := 0; id < nodes; id++ {
			id := id
			m.Join(id, cfg.Arena.RandomPoint(rng), func(*Frame) { order = append(order, heard{s.Now(), id}) })
		}
		for round := 0; round < 50; round++ {
			// Everything is stale after the move: the sender's list is
			// filled by Send, every receiver's by the filter under it.
			m.SetPos(rng.Intn(nodes), cfg.Arena.RandomPoint(rng))
			for k := 0; k < 3; k++ {
				fanout += m.Send(Frame{Src: rng.Intn(nodes), Dst: BroadcastAddr, Size: 8})
			}
			if rules := auditMedium(m); len(rules) != 0 {
				t.Fatalf("querying=%v round %d: audit reports %v", querying, round, rules)
			}
			s.Run(sim.MaxTime)
		}
		for _, l := range m.nbrs {
			if cap(l) > share {
				outgrown++
			}
		}
		return order, fanout, outgrown
	}
	want, wantFanout, _ := run(false)
	got, gotFanout, outgrown := run(true)
	if gotFanout != wantFanout || len(got) != len(want) {
		t.Fatalf("filtered medium queued %d receptions and delivered %d, its twin %d and %d", gotFanout, len(got), wantFanout, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reception %d: node %d at %v, the unfiltered twin has node %d at %v", i, got[i].to, got[i].at, want[i].to, want[i].at)
		}
	}
	if outgrown < nodes/2 {
		t.Errorf("only %d of %d lists outgrew their share of the backing array; the test lost its density", outgrown, nodes)
	}
}

// The nbr-table rule: a list under a current stamp must be what the grid
// says now.
func TestAuditDetectsStaleNeighbourTable(t *testing.T) {
	build := func() *Medium {
		m := newTestMedium(t, sim.New(1), testConfig(4))
		for id := 0; id < 4; id++ {
			m.Join(id, geom.Point{X: 50 + float64(id), Y: 50}, func(*Frame) {})
		}
		m.Send(Frame{Src: 0, Dst: BroadcastAddr, Size: 8})
		if rules := auditMedium(m); len(rules) != 0 {
			t.Fatalf("healthy medium reports %v", rules)
		}
		return m
	}

	// A list edited in place: order is part of the contract.
	m := build()
	l := m.nbrs[0]
	l[0], l[1] = l[1], l[0]
	assertRule(t, auditMedium(m), "nbr-table")

	// An entry carrying a join epoch its node no longer has.
	m = build()
	m.nbrs[0][0].epoch++
	assertRule(t, auditMedium(m), "nbr-table")

	// A skipped bump: the grid changes behind the table's back.
	m = build()
	m.grid.Move(1, geom.Point{X: 90, Y: 90})
	assertRule(t, auditMedium(m), "nbr-table")

	// The checker only reads: auditing fills and stamps nothing.
	m = build()
	m.SetPos(1, geom.Point{X: 51, Y: 51})
	fills, stamps := m.fills, slices.Clone(m.stamp)
	if rules := auditMedium(m); len(rules) != 0 {
		t.Fatalf("medium with stale lists reports %v", rules)
	}
	if !slices.Equal(m.stamp, stamps) || m.fills != fills {
		t.Fatalf("Audit filled or stamped a list (stamps %v -> %v, fills %d -> %d)", stamps, m.stamp, fills, m.fills)
	}
}
