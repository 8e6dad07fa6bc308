package dsdv

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/radio"
	"manetp2p/internal/route"
	"manetp2p/internal/sim"
)

// refTable is the routing table kept the simple way, a map from
// destination to row, advertised in sorted key order: the reference the
// id-indexed table is held to.
type refTable struct {
	self    int
	timeout sim.Time
	seq     uint32
	m       map[int]*tableRow
}

func (rt *refTable) expireStale(now sim.Time) {
	for _, row := range rt.m { // commutative: each row on its own
		if row.metric < infinityMetric && now-row.heard > rt.timeout {
			row.metric = infinityMetric
			row.seq++
		}
	}
}

func (rt *refTable) advertise(now sim.Time) []netif.AdvEntry {
	rt.expireStale(now)
	rt.seq += 2
	entries := []netif.AdvEntry{{Dst: rt.self, Metric: 0, Seq: rt.seq}}
	dsts := make([]int, 0, len(rt.m))
	for dst := range rt.m { // sorted below
		dsts = append(dsts, dst)
	}
	sort.Ints(dsts)
	for _, dst := range dsts {
		entries = append(entries, netif.AdvEntry{Dst: dst, Metric: rt.m[dst].metric, Seq: rt.m[dst].seq})
	}
	return entries
}

func (rt *refTable) handleUpdate(u *netif.Packet, now sim.Time) {
	for _, e := range u.Entries {
		if e.Dst == rt.self {
			continue
		}
		metric := e.Metric + 1
		if e.Metric >= infinityMetric {
			metric = infinityMetric
		}
		row, ok := rt.m[e.Dst]
		if !ok {
			if metric < infinityMetric {
				rt.m[e.Dst] = &tableRow{nextHop: u.Origin, metric: metric, seq: e.Seq, heard: now, known: true}
			}
			continue
		}
		switch {
		case seqGreater(e.Seq, row.seq), e.Seq == row.seq && metric < row.metric:
			row.nextHop, row.metric, row.seq, row.heard = u.Origin, metric, e.Seq, now
		case row.nextHop == u.Origin && e.Seq == row.seq:
			row.heard = now
		}
	}
}

// TestTableMatchesMapModel drives one router's table and refTable through
// a seeded interleaving of merged advertisements (new, newer, equal and
// older sequence numbers, broken routes, entries naming the router
// itself, sequence numbers either side of the wrap), the router's own
// advertisements and clock advances landing on, one tick before and one
// tick after route timeouts. After every step every row, and HopsTo,
// agree with the model for every node id, and every advertisement the
// router puts on the air lists the model's rows in sorted key order,
// entry for entry.
func TestTableMatchesMapModel(t *testing.T) {
	const nodes, self, steps = 12, 4, 20000
	s := sim.New(1)
	med, err := radio.NewMedium(s, radio.Config{
		Arena: geom.Rect{W: 100, H: 100}, Range: 10, NumNodes: nodes, Latency: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The periodic advertisement is pushed past the test's horizon; the
	// test calls advertise itself.
	cfg := DefaultConfig()
	cfg.UpdatePeriod = 10_000 * sim.Hour
	r := NewRouter(self, route.NewPlane(s, med), cfg)
	med.Join(self, geom.Point{X: 50, Y: 50}, r.HandleFrame)
	var heard [][]netif.AdvEntry // copied: a frame's slices are valid only during the callback
	med.Join(0, geom.Point{X: 55, Y: 50}, func(f *radio.Frame) { heard = append(heard, slices.Clone(f.Payload.Entries)) })
	ref := &refTable{self: self, timeout: r.cfg.RouteTimeout, m: map[int]*tableRow{}}
	rng := rand.New(rand.NewSource(35))
	seqs := []uint32{0, 1, 2, 3, 4, 5, 6, 1<<32 - 2, 1<<32 - 1}
	for step := 0; step < steps; step++ {
		now := s.Now()
		switch k := rng.Intn(10); {
		case k < 6: // a neighbour's advertisement
			u := &netif.Packet{Kind: netif.PktUpdate, Origin: rng.Intn(nodes)}
			for n := rng.Intn(6); n > 0; n-- {
				e := netif.AdvEntry{Dst: rng.Intn(nodes), Metric: rng.Intn(4), Seq: seqs[rng.Intn(len(seqs))]}
				if rng.Intn(5) == 0 {
					e.Metric = infinityMetric
				}
				u.Entries = append(u.Entries, e)
			}
			r.handleUpdate(u)
			ref.handleUpdate(u, now)
		case k < 7: // the router's own advertisement
			heard = heard[:0]
			r.advertise()
			want := ref.advertise(now)
			s.Run(now + 2*sim.Millisecond)
			if len(heard) != 1 || !slices.Equal(heard[0], want) {
				t.Fatalf("step %d: advertised %v, model %v", step, heard, want)
			}
		default: // the clock moves, often onto a timeout
			until := now + sim.Time(1+rng.Int63n(int64(20*sim.Second)))
			if row, ok := ref.m[rng.Intn(nodes)]; ok && rng.Intn(2) == 0 {
				until = row.heard + ref.timeout + sim.Time(rng.Intn(3)-1)
			}
			if until > now {
				s.Run(until)
			}
		}

		now = s.Now()
		for dst := 0; dst < nodes; dst++ {
			want := tableRow{}
			if row, ok := ref.m[dst]; ok {
				want = *row
			}
			wantHops, wantOK := want.metric, want.known && want.metric < infinityMetric && now-want.heard <= ref.timeout
			hops, ok := r.HopsTo(dst)
			if !reflect.DeepEqual(r.table[dst], want) || ok != wantOK || ok && hops != wantHops {
				t.Fatalf("step %d: row %d = %+v, HopsTo %d %v; model %+v", step, dst, r.table[dst], hops, ok, want)
			}
		}
	}
}
