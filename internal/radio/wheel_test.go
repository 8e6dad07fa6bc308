package radio

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/sim"
)

// geometries are the (Latency, Jitter) pairs the wheel tests sweep: no
// delay at all, the smallest window, the default, and one wide enough
// to force buckets wider than 1 µs.
var geometries = []struct {
	latency, jitter sim.Time
	shift           uint
	buckets         int
}{
	{0, 0, 0, 2},
	{0, sim.Microsecond, 0, 4},
	{2 * sim.Millisecond, sim.Millisecond, 0, 4096},
	{sim.Second, 250 * sim.Millisecond, 9, 4096},
}

func TestWheelGeometry(t *testing.T) {
	for _, g := range geometries {
		var w wheel
		w.init(g.latency + g.jitter)
		if w.shift != g.shift || len(w.buckets) != g.buckets {
			t.Errorf("latency %v jitter %v: shift %d with %d buckets, want %d with %d",
				g.latency, g.jitter, w.shift, len(w.buckets), g.shift, g.buckets)
		}
		if need := int(int64(w.span)>>w.shift) + 2; len(w.buckets) < need {
			t.Errorf("latency %v jitter %v: %d buckets cannot hold a window of %d", g.latency, g.jitter, len(w.buckets), need)
		}
	}
}

// key is one piece of simulator work in the reference order.
type key struct {
	at   sim.Time
	seq  uint64
	what string
}

// TestDeliveryOrderMatchesReferenceSort drives random traffic through
// Send → wheel → Fire, mixed with independently scheduled events, and
// requires everything to fire in exactly the order of a reference sort
// on (at, seq). It sends from inside receive callbacks, runs to horizons
// that fall inside bursts, and Stops the run from inside a delivery so
// that same-instant deliveries are split across two Run calls.
func TestDeliveryOrderMatchesReferenceSort(t *testing.T) {
	for _, g := range geometries {
		g := g
		t.Run(fmt.Sprintf("latency=%v,jitter=%v", g.latency, g.jitter), func(t *testing.T) {
			const nodes = 6
			cfg := testConfig(nodes)
			cfg.Latency, cfg.Jitter = g.latency, g.jitter
			s := sim.New(11)
			m := newTestMedium(t, s, cfg)
			rng := rand.New(rand.NewSource(5))

			var want, got []key
			var lastSeq uint64
			// send transmits one tagged frame and adds the receptions it
			// queued — the recs with a seq newer than any seen — to the
			// reference list.
			tag := 0
			send := func(src, dst int) {
				tag++
				m.Send(Frame{Src: src, Dst: dst, Size: 8, Payload: pkt(uint32(tag))})
				m.wheel.each(func(r *rec) {
					if r.seq > lastSeq {
						want = append(want, key{r.at, r.seq, fmt.Sprintf("rx %d<-#%d", r.to, tag)})
					}
				})
				lastSeq = s.Seq()
			}
			event := func(delay sim.Time) {
				at := s.Now() + delay
				s.At(at, func() { got = append(got, key{at: s.Now(), what: fmt.Sprintf("ev@%d", at)}) })
				lastSeq = s.Seq()
				want = append(want, key{at, lastSeq, fmt.Sprintf("ev@%d", at)})
			}

			replies := 400
			for i := 0; i < nodes; i++ {
				i := i
				m.Join(i, geom.Point{X: 50 + float64(i%3), Y: 50 + float64(i/3)}, func(f *Frame) {
					got = append(got, key{at: s.Now(), what: fmt.Sprintf("rx %d<-#%d", i, f.Payload.Msg.Seq)})
					switch rng.Intn(8) {
					case 0, 1:
						if replies > 0 {
							replies--
							send(i, BroadcastAddr)
						}
					case 2:
						if replies > 0 {
							replies--
							send(i, f.Src)
						}
					case 3:
						s.Stop()
					}
				})
			}

			span := g.latency + g.jitter
			for round := 0; round < 60; round++ {
				for k := rng.Intn(6); k >= 0; k-- {
					if rng.Intn(3) == 0 {
						send(rng.Intn(nodes), BroadcastAddr)
					} else {
						send(rng.Intn(nodes), rng.Intn(nodes))
					}
					if rng.Intn(2) == 0 {
						event(g.latency + sim.Time(rng.Int63n(int64(g.jitter)+1)))
					}
				}
				// A horizon somewhere inside the window splits the burst.
				s.Run(s.Now() + g.latency/2 + sim.Time(rng.Int63n(int64(span)+1)))
			}
			for s.Due() || m.InFlight() > 0 || s.Pending() > 0 { // Stop may end any Run early
				s.Run(sim.MaxTime)
			}

			sort.Slice(want, func(i, j int) bool {
				if want[i].at != want[j].at {
					return want[i].at < want[j].at
				}
				return want[i].seq < want[j].seq
			})
			if len(got) != len(want) {
				t.Fatalf("fired %d pieces of work, queued %d", len(got), len(want))
			}
			for i := range want {
				if got[i].at != want[i].at || got[i].what != want[i].what {
					t.Fatalf("position %d: fired %q at %v, reference order has %q at %v (seq %d)",
						i, got[i].what, got[i].at, want[i].what, want[i].at, want[i].seq)
				}
			}
			if len(want) < 1000 {
				t.Errorf("only %d pieces of work; the test lost its traffic", len(want))
			}
			if rules := auditMedium(m); len(rules) != 0 {
				t.Errorf("drained medium reports %v", rules)
			}
		})
	}
}

// A node that leaves and re-joins while a frame is in flight must not
// receive it: the frame was addressed to its previous incarnation.
func TestLeaveRejoinLosesInFlightFrames(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2))
	var rx capture
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 12, Y: 10}, rx.recv)
	m.Send(Frame{Src: 0, Dst: 1, Size: 16, Payload: pkt(1)})
	m.Leave(1)
	m.Join(1, geom.Point{X: 12, Y: 10}, rx.recv) // back inside the 2 ms flight time
	m.Send(Frame{Src: 0, Dst: 1, Size: 16, Payload: pkt(2)})
	s.Run(sim.MaxTime)
	if len(rx.frames) != 1 || rx.frames[0].Payload.Msg.Seq != 2 {
		t.Fatalf("rejoined node received %+v, want only the frame sent after it rejoined", rx.frames)
	}
	if st := m.Stats(1); st.LostDown != 1 || st.RxFrames != 1 {
		t.Errorf("stats = %+v, want the stale arrival counted as LostDown", st)
	}
	conservationOK(t, m, "after rejoin inside the flight time")
}

func auditMedium(m *Medium) []string {
	var rules []string
	m.Audit(func(rule, detail string) { rules = append(rules, rule+": "+detail) })
	return rules
}

func assertRule(t *testing.T, rules []string, want string) {
	t.Helper()
	for _, r := range rules {
		if strings.HasPrefix(r, want+":") {
			return
		}
	}
	t.Fatalf("audit did not report %q; got %v", want, rules)
}

// busyMedium returns a medium with broadcasts and unicasts in flight, a
// few already delivered (so the slab holds recycled slots), and at least
// one bucket holding two recs.
func busyMedium(t *testing.T) (*sim.Sim, *Medium) {
	t.Helper()
	cfg := testConfig(4)
	cfg.Jitter = 3 * sim.Microsecond
	s := sim.New(3)
	m := newTestMedium(t, s, cfg)
	for i := 0; i < 4; i++ {
		m.Join(i, geom.Point{X: 50 + float64(i), Y: 50}, func(*Frame) {})
	}
	for i := 0; i < 8; i++ {
		m.Send(Frame{Src: i % 4, Dst: BroadcastAddr, Size: 8, Payload: pkt(uint32(i))})
	}
	s.Run(sim.MaxTime)
	for i := 0; i < 4; i++ {
		m.Send(Frame{Src: i, Dst: BroadcastAddr, Size: 8, Payload: pkt(uint32(i))})
		m.Send(Frame{Src: i, Dst: (i + 1) % 4, Size: 8, Payload: pkt(uint32(i))})
	}
	if rules := auditMedium(m); len(rules) != 0 {
		t.Fatalf("healthy medium reports %v", rules)
	}
	return s, m
}

// crowded returns a bucket holding at least two recs.
func crowded(t *testing.T, m *Medium) *bucket {
	t.Helper()
	for b := range m.wheel.buckets {
		if bk := &m.wheel.buckets[b]; bk.head >= 0 && bk.head != bk.tail {
			return bk
		}
	}
	t.Fatal("no bucket holds two recs")
	return nil
}

func TestAuditDetectsWheelDisorder(t *testing.T) {
	_, m := busyMedium(t)
	bk := crowded(t, m)
	first, second := &m.wheel.recs[bk.head], &m.wheel.recs[m.wheel.recs[bk.head].next]
	first.seq, second.seq = second.seq, first.seq
	assertRule(t, auditMedium(m), "wheel-order")
	first.seq, second.seq = second.seq, first.seq

	// A stale cached head would make the kernel merge on the wrong key.
	m.wheel.headSeq++
	assertRule(t, auditMedium(m), "wheel-order")
	m.wheel.headSeq--

	// An occupancy bit without a list (or the reverse) derails firstFrom.
	for b := range m.wheel.buckets {
		if m.wheel.buckets[b].head < 0 {
			m.wheel.words[b>>6] |= 1 << (b & 63)
			break
		}
	}
	assertRule(t, auditMedium(m), "wheel-order")
}

func TestAuditDetectsRecOutsideWindow(t *testing.T) {
	s, m := busyMedium(t)
	span := m.cfg.Latency + m.cfg.Jitter
	m.wheel.recs[m.wheel.buckets[m.wheel.bucketOf(m.wheel.headAt)].tail].at = s.Now() + span + 1
	assertRule(t, auditMedium(m), "wheel-window")
}

func TestAuditDetectsSlotCountDrift(t *testing.T) {
	_, m := busyMedium(t)
	m.slab.at(m.wheel.recs[m.wheel.head].slot).refs++
	assertRule(t, auditMedium(m), "slot-refs")
}

func TestAuditDetectsDirtyFreeSlot(t *testing.T) {
	s, m := busyMedium(t)
	s.Run(sim.MaxTime)
	if len(m.slab.free) == 0 {
		t.Fatal("drained medium recycled no slots")
	}
	if rules := auditMedium(m); len(rules) != 0 {
		t.Fatalf("drained medium reports %v", rules)
	}
	m.slab.at(m.slab.free[0]).Payload.Path = []int{1}
	assertRule(t, auditMedium(m), "free-slot")
}
