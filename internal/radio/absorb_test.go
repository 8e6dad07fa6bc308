package radio

import (
	"fmt"
	"reflect"
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// floodModel is a minimal duplicate-suppressed flood over one medium: a
// node marks a flood on its first copy and relays it while TTL remains;
// a later copy, while the mark is younger than expire, only counts in
// dups. inert answers the medium's Inert question the way route.Plane
// does for AODV, so a run with it installed must agree with a run
// without it on every counter, dups folded into Absorbed.
type floodModel struct {
	t      *testing.T
	s      *sim.Sim
	m      *Medium
	expire sim.Time
	marked map[uint32][]sim.Time // per flood id and node: mark instant + 1, 0 unmarked
	dups   []uint64
	firsts []uint64
}

func newFloodModel(t *testing.T, cfg Config, pts []geom.Point, expire sim.Time, absorb bool) *floodModel {
	fm := &floodModel{
		t:      t,
		s:      sim.New(11),
		expire: expire,
		marked: map[uint32][]sim.Time{},
		dups:   make([]uint64, len(pts)),
		firsts: make([]uint64, len(pts)),
	}
	cfg.NumNodes = len(pts)
	fm.m = newTestMedium(t, fm.s, cfg)
	for i, p := range pts {
		fm.m.Join(i, p, fm.recv(i))
	}
	if absorb {
		fm.m.SetAbsorber(fm.inert)
	}
	return fm
}

func (fm *floodModel) marks(id uint32) []sim.Time {
	if fm.marked[id] == nil {
		fm.marked[id] = make([]sim.Time, len(fm.dups))
	}
	return fm.marked[id]
}

func (fm *floodModel) live(mk sim.Time) bool { return mk != 0 && fm.s.Now()-(mk-1) < fm.expire }

func (fm *floodModel) recv(i int) Receiver {
	return func(f *Frame) {
		p := f.Payload
		if p.Origin == i {
			return
		}
		mk := &fm.marks(p.ID)[i]
		if fm.live(*mk) {
			fm.dups[i]++
			return
		}
		*mk = fm.s.Now() + 1
		fm.firsts[i]++
		if p.TTL > 1 {
			q := p
			q.TTL--
			q.HopCount++
			fm.m.Send(Frame{Src: i, Dst: BroadcastAddr, Size: 32 + q.HopCount, Payload: q})
			// The relay's Send may settle held copies of f's own frame:
			// the frame must outlive them.
			if g := f.Payload; g.Kind != p.Kind || g.Origin != p.Origin || g.ID != p.ID || g.TTL != p.TTL {
				fm.t.Errorf("node %d: frame %+v changed to %+v under its own callback", i, p, g)
			}
		}
	}
}

// originate floods a new id from node o.
func (fm *floodModel) originate(o int, id uint32, ttl int) {
	fm.marks(id)[o] = fm.s.Now() + 1
	fm.m.Send(Frame{Src: o, Dst: BroadcastAddr, Size: 32,
		Payload: netif.Packet{Kind: netif.PktBcast, Origin: o, ID: id, TTL: ttl, Msg: netif.TestMsg(id)}})
}

// forget drops node i's marks early, announcing it first, as an
// evicting duplicate cache does.
func (fm *floodModel) forget(i int) {
	fm.m.Unabsorb(i)
	for _, mk := range fm.marked {
		mk[i] = 0
	}
}

func (fm *floodModel) inert(f *Frame) Inert {
	p := &f.Payload
	now := fm.s.Now()
	in := Inert{Set: make([]uint64, (len(fm.dups)+63)/64), Until: sim.MaxTime, Fresh: now + fm.expire,
		Skip: p.Origin, Token: uint64(p.ID) + 1}
	for i, mk := range fm.marks(p.ID) {
		if fm.live(mk) {
			in.Set[i>>6] |= 1 << (i & 63)
			in.Until = min(in.Until, mk-1+fm.expire)
		}
	}
	return in
}

// state is everything a reader can see, with Absorbed folded back into
// the duplicate counts it stands for.
type floodState struct {
	Now      sim.Time
	Seq      uint64
	Stats    []Stats
	InFlight []uint64
	Dups     []uint64
	Firsts   []uint64
	Up       []bool
}

func (fm *floodModel) state() floodState {
	st := floodState{Now: fm.s.Now(), Seq: fm.s.Seq(), InFlight: fm.m.InFlightTo(nil),
		Dups: append([]uint64(nil), fm.dups...), Firsts: append([]uint64(nil), fm.firsts...)}
	for i := range fm.dups {
		x := fm.m.Stats(i)
		st.Dups[i] += x.Absorbed
		x.Absorbed = 0
		st.Stats = append(st.Stats, x)
		st.Up = append(st.Up, fm.m.Up(i))
	}
	return st
}

// grid places w×h nodes 6 m apart: with the 10 m range each hears its
// row, column and diagonal neighbours.
func grid(w, h int) []geom.Point {
	var pts []geom.Point
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pts = append(pts, geom.Point{X: 10 + 6*float64(x), Y: 10 + 6*float64(y)})
		}
	}
	return pts
}

// absorbHazard is one in-flight hazard, scripted identically into both
// runs: floods from rotating origins every 700 µs, plus the hazard's own
// events.
type absorbHazard struct {
	name   string
	cfg    func(*Config)
	expire sim.Time
	script func(fm *floodModel)
}

var absorbHazards = []absorbHazard{
	// Without jitter the copies of one transmission land together, and
	// a node leaves right after some have landed: held ones among them
	// are settled as received, the rest as lost.
	{name: "leave", cfg: noJitter, script: func(fm *floodModel) {
		for i, at := range []sim.Time{4100, 6100, 6800, 8200, 9600} {
			last(fm, at*sim.Microsecond, func() { fm.m.Leave(i + 4) })
		}
	}},
	{name: "rejoin", cfg: noJitter, script: func(fm *floodModel) {
		for k := sim.Time(0); k < 12; k++ {
			i := 4 + int(k%4)
			at := 4100*sim.Microsecond + k*700*sim.Microsecond
			last(fm, at, func() { fm.m.Leave(i) })
			fm.s.At(at+sim.Millisecond, func() { fm.m.Join(i, grid(4, 3)[i], fm.recv(i)) })
		}
	}},
	// Transmissions alone drain batteries (receptions stay free, so
	// copies are held): a node dies inside its twelfth Send.
	{name: "death", cfg: func(c *Config) { c.Energy = EnergyConfig{Capacity: 0.012, TxPerFrame: 1e-3} }},
	// Marks outlive the shortest flight but not the longest: a copy
	// trailing another by more than expire is a first arrival again.
	{name: "expiry", cfg: func(c *Config) { c.Jitter = 3 * sim.Millisecond }, expire: 2500 * sim.Microsecond},
	// A node forgets its marks early, announcing it with Unabsorb.
	{name: "forget", script: func(fm *floodModel) {
		for i, at := range []sim.Time{2900, 3400, 5100, 6600} {
			fm.s.At(at*sim.Microsecond, func() { fm.forget(i + 3) })
		}
	}},
}

func noJitter(c *Config) { c.Jitter = 0 }

// last runs fn at instant at, after everything already queued for it.
func last(fm *floodModel, at sim.Time, fn func()) {
	fm.s.At(at, func() { fm.s.At(at, fn) })
}

func (h absorbHazard) build(t *testing.T, absorb bool) *floodModel {
	cfg := testConfig(0)
	cfg.Jitter = sim.Millisecond
	if h.cfg != nil {
		h.cfg(&cfg)
	}
	expire := h.expire
	if expire == 0 {
		expire = sim.Second
	}
	fm := newFloodModel(t, cfg, grid(4, 3), expire, absorb)
	for k := 0; k < 12; k++ {
		fm.s.At(sim.Time(k)*700*sim.Microsecond, func() { fm.originate(k%12, uint32(k+1), 4) })
	}
	if h.script != nil {
		h.script(fm)
	}
	return fm
}

// compare fails t unless both runs read alike; it also audits the
// absorbing medium, whose held copies count in slot-refs.
func compare(t *testing.T, when string, abs, ref *floodModel) {
	t.Helper()
	if a, r := abs.state(), ref.state(); !reflect.DeepEqual(a, r) {
		t.Fatalf("%s: held run reads\n%+v\nreference reads\n%+v", when, a, r)
	}
	if rules := auditMedium(abs.m); len(rules) > 0 {
		t.Fatalf("%s: audit: %v", when, rules)
	}
}

// Every hazard stepped in lockstep with a run that holds nothing: at
// each kernel entry of the held run, the reference fires everything up
// to the same key, and at every third one every reader must agree. (A
// read settles what the kernel has passed; reading at every entry would
// leave nothing for Join, Leave or a callback's Send to settle.)
func TestAbsorbedCopiesMatchDeliveredOnes(t *testing.T) {
	for _, h := range absorbHazards {
		t.Run(h.name, func(t *testing.T) {
			abs, ref := h.build(t, true), h.build(t, false)
			steps := 0
			for {
				at, seq, ok := abs.s.Peek()
				if !ok {
					break
				}
				abs.s.Step()
				for {
					rat, rseq, rok := ref.s.Peek()
					if !rok || rat > at || (rat == at && rseq > seq) {
						break
					}
					ref.s.Step()
				}
				if steps++; steps%3 == 0 {
					compare(t, fmt.Sprintf("step %d", steps), abs, ref)
				}
			}
			// A finite horizon: a drained Run(MaxTime) leaves the held
			// run's clock at its last kernel entry (sim.Run).
			ref.s.Run(sim.Second)
			abs.s.Run(sim.Second)
			compare(t, "at the horizon", abs, ref)
			var held uint64
			for i := range abs.dups {
				held += abs.m.Stats(i).Absorbed
			}
			if held == 0 || abs.s.Fired() >= ref.s.Fired() {
				t.Errorf("%d copies held, %d kernel entries against %d: nothing was absorbed", held, abs.s.Fired(), ref.s.Fired())
			}
		})
	}
}

// A Stop in the middle of an instant: receptions of one flood have
// fired, those of a second at the same instant have not, and the
// readers must tell them apart in both runs alike.
func TestAbsorbedCopiesReadAfterStopMidInstant(t *testing.T) {
	build := func(absorb bool) *floodModel {
		fm := newFloodModel(t, testConfig(0), grid(4, 3), sim.Second, absorb)
		for k := 0; k < 6; k++ {
			at := sim.Time(k) * 2 * sim.Millisecond
			fm.s.At(at, func() { fm.originate(k, uint32(2*k+1), 3) })
			fm.s.At(at+2*sim.Millisecond, func() { fm.s.Stop() })
			fm.s.At(at, func() { fm.originate(11-k, uint32(2*k+2), 3) })
		}
		return fm
	}
	abs, ref := build(true), build(false)
	for run := 0; run <= 6; run++ {
		abs.s.Run(sim.Second)
		ref.s.Run(sim.Second)
		compare(t, fmt.Sprintf("run %d", run), abs, ref)
		if stopped := abs.s.Now() < sim.Second; stopped != (run < 6) {
			t.Fatalf("run %d returned at %v: want six stops, then the horizon", run, abs.s.Now())
		}
	}
}

// A receive callback that Sends settles held copies of the very frame it
// was handed: the frame must stay in its slot until the callback returns.
// Node 1's copies are held, node 2's are delivered, and node 2 answers
// each broadcast from inside its callback; with jitter, node 1's copy
// often lands first, so the answer's Send settles it.
func TestCallbackSendSettlesCopiesOfItsOwnFrame(t *testing.T) {
	s := sim.New(5)
	cfg := testConfig(3)
	cfg.Jitter = sim.Millisecond
	m := newTestMedium(t, s, cfg)
	m.SetAbsorber(func(*Frame) Inert { return Inert{Set: []uint64{1 << 1}, Until: sim.MaxTime, Skip: -1, Token: 1} })
	settledFirst := 0
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 14, Y: 10}, func(*Frame) { t.Error("a held copy reached its callback") })
	m.Join(2, geom.Point{X: 10, Y: 14}, func(f *Frame) {
		held := len(m.held) - m.heldHead
		want := f.Payload.Msg
		m.Send(Frame{Src: 2, Dst: 0, Size: 8, Payload: pkt(0)})
		if len(m.held)-m.heldHead < held {
			settledFirst++
		}
		if f.Payload.Msg != want {
			t.Errorf("frame %v became %v under its callback's Send", want, f.Payload.Msg)
		}
	})
	for k := 1; k <= 20; k++ {
		m.Send(Frame{Src: 0, Dst: BroadcastAddr, Size: 16, Payload: pkt(uint32(k))})
		s.Run(s.Now() + 10*sim.Millisecond)
	}
	if settledFirst == 0 {
		t.Fatal("no callback Send settled a held copy of its own frame")
	}
	if rules := auditMedium(m); len(rules) > 0 {
		t.Fatalf("audit: %v", rules)
	}
	if st := m.Stats(1); st.Absorbed != 20 || st.RxFrames != 20 {
		t.Errorf("node 1 stats %+v, want 20 receptions, all absorbed", st)
	}
}
