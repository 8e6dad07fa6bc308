package radio

import (
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/netif"
	"manetp2p/internal/sim"
)

// pkt wraps a tagged test message in a router frame for medium tests.
func pkt(tag uint32) netif.Packet {
	return netif.Packet{Msg: netif.TestMsg(tag)}
}

func testConfig(n int) Config {
	return Config{
		Arena:    geom.Rect{W: 100, H: 100},
		Range:    10,
		NumNodes: n,
		Latency:  2 * sim.Millisecond,
	}
}

type capture struct {
	frames []Frame
}

func (c *capture) recv(f *Frame) { c.frames = append(c.frames, *f) }

func newTestMedium(t *testing.T, s *sim.Sim, cfg Config) *Medium {
	t.Helper()
	m, err := NewMedium(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Arena.W = 0 },
		func(c *Config) { c.Range = 0 },
		func(c *Config) { c.NumNodes = 0 },
		func(c *Config) { c.Latency = -1 },
		func(c *Config) { c.LossProb = 1.0 },
		func(c *Config) { c.LossProb = -0.1 },
	}
	for i, mutate := range bads {
		c := testConfig(3)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestUnicastInRange(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2))
	var rx capture
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 15, Y: 10}, rx.recv)
	n := m.Send(Frame{Src: 0, Dst: 1, Size: 64, Payload: pkt(5)})
	if n != 1 {
		t.Fatalf("Send queued %d deliveries, want 1", n)
	}
	s.Run(sim.MaxTime)
	if len(rx.frames) != 1 || rx.frames[0].Payload.Msg != netif.TestMsg(5) {
		t.Fatalf("rx = %+v, want one tagged frame", rx.frames)
	}
	if s.Now() != 2*sim.Millisecond {
		t.Errorf("delivery at %v, want 2ms latency", s.Now())
	}
}

func TestUnicastOutOfRangeLost(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2))
	var rx capture
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 30, Y: 10}, rx.recv)
	if n := m.Send(Frame{Src: 0, Dst: 1, Size: 64}); n != 0 {
		t.Fatalf("out-of-range Send queued %d, want 0", n)
	}
	s.Run(sim.MaxTime)
	if len(rx.frames) != 0 {
		t.Fatal("frame delivered beyond range")
	}
}

func TestBroadcastReachesAllInRange(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(4))
	var rx1, rx2, rx3 capture
	m.Join(0, geom.Point{X: 50, Y: 50}, func(*Frame) {})
	m.Join(1, geom.Point{X: 55, Y: 50}, rx1.recv)
	m.Join(2, geom.Point{X: 50, Y: 58}, rx2.recv)
	m.Join(3, geom.Point{X: 80, Y: 80}, rx3.recv) // out of range
	n := m.Send(Frame{Src: 0, Dst: BroadcastAddr, Size: 32})
	if n != 2 {
		t.Fatalf("broadcast queued %d, want 2", n)
	}
	s.Run(sim.MaxTime)
	if len(rx1.frames) != 1 || len(rx2.frames) != 1 || len(rx3.frames) != 0 {
		t.Fatalf("rx counts = %d,%d,%d want 1,1,0", len(rx1.frames), len(rx2.frames), len(rx3.frames))
	}
}

func TestSenderDoesNotHearOwnBroadcast(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(1))
	var rx capture
	m.Join(0, geom.Point{X: 50, Y: 50}, rx.recv)
	m.Send(Frame{Src: 0, Dst: BroadcastAddr, Size: 32})
	s.Run(sim.MaxTime)
	if len(rx.frames) != 0 {
		t.Fatal("sender received its own broadcast")
	}
}

func TestLeaveStopsDelivery(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2))
	var rx capture
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 12, Y: 10}, rx.recv)
	m.Send(Frame{Src: 0, Dst: 1, Size: 16})
	m.Leave(1) // frame is in flight; the receiver leaves before arrival
	s.Run(sim.MaxTime)
	if len(rx.frames) != 0 {
		t.Fatal("frame delivered to departed node")
	}
	// Down nodes cannot transmit.
	if n := m.Send(Frame{Src: 1, Dst: 0, Size: 16}); n != 0 {
		t.Fatal("down node transmitted")
	}
	// Leave of a down node is a no-op.
	m.Leave(1)
}

func TestSetPosAffectsReachability(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2))
	var rx capture
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 50, Y: 50}, rx.recv)
	if m.InRange(0, 1) {
		t.Fatal("nodes 40m+ apart reported in range")
	}
	m.SetPos(1, geom.Point{X: 17, Y: 10})
	if !m.InRange(0, 1) {
		t.Fatal("nodes 7m apart reported out of range")
	}
	m.Send(Frame{Src: 0, Dst: 1, Size: 16})
	s.Run(sim.MaxTime)
	if len(rx.frames) != 1 {
		t.Fatal("frame not delivered after move into range")
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(4))
	m.Join(0, geom.Point{X: 50, Y: 50}, func(*Frame) {})
	m.Join(1, geom.Point{X: 55, Y: 50}, func(*Frame) {})
	m.Join(2, geom.Point{X: 50, Y: 45}, func(*Frame) {})
	m.Join(3, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	nbs := m.Neighbors(nil, 0)
	if len(nbs) != 2 {
		t.Fatalf("Neighbors = %v, want 2 entries", nbs)
	}
	if m.Degree(0) != 2 || m.Degree(3) != 0 {
		t.Fatalf("Degree(0)=%d Degree(3)=%d, want 2,0", m.Degree(0), m.Degree(3))
	}
}

func TestStatsCounters(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2))
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 12, Y: 10}, func(*Frame) {})
	m.Send(Frame{Src: 0, Dst: 1, Size: 100})
	m.Send(Frame{Src: 0, Dst: 1, Size: 50})
	s.Run(sim.MaxTime)
	tx, rx := m.Stats(0), m.Stats(1)
	if tx.TxFrames != 2 || tx.TxBytes != 150 {
		t.Errorf("tx stats = %+v, want 2 frames / 150 bytes", tx)
	}
	if rx.RxFrames != 2 || rx.RxBytes != 150 {
		t.Errorf("rx stats = %+v, want 2 frames / 150 bytes", rx)
	}
}

func TestLossProbabilityDropsFrames(t *testing.T) {
	cfg := testConfig(2)
	cfg.LossProb = 0.5
	s := sim.New(42)
	m := newTestMedium(t, s, cfg)
	var rx capture
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 12, Y: 10}, rx.recv)
	const total = 2000
	for i := 0; i < total; i++ {
		m.Send(Frame{Src: 0, Dst: 1, Size: 16})
	}
	s.Run(sim.MaxTime)
	got := len(rx.frames)
	if got < total/2-150 || got > total/2+150 {
		t.Errorf("with 50%% loss, delivered %d of %d; outside tolerance", got, total)
	}
	if m.Stats(1).Dropped == 0 {
		t.Error("Dropped counter not incremented")
	}
}

func TestJitterSpreadsDeliveries(t *testing.T) {
	cfg := testConfig(2)
	cfg.Jitter = 5 * sim.Millisecond
	s := sim.New(7)
	m := newTestMedium(t, s, cfg)
	var arrivals []sim.Time
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 12, Y: 10}, func(*Frame) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 50; i++ {
		m.Send(Frame{Src: 0, Dst: 1, Size: 16})
	}
	s.Run(sim.MaxTime)
	distinct := map[sim.Time]bool{}
	for _, a := range arrivals {
		if a < 2*sim.Millisecond || a > 7*sim.Millisecond {
			t.Fatalf("arrival %v outside [latency, latency+jitter]", a)
		}
		distinct[a] = true
	}
	if len(distinct) < 5 {
		t.Errorf("only %d distinct arrival times; jitter not applied", len(distinct))
	}
}

func TestBatteryDepletionKillsNode(t *testing.T) {
	cfg := testConfig(2)
	cfg.Energy = EnergyConfig{Capacity: 1.0, TxPerFrame: 0.3, RxPerFrame: 0.05}
	s := sim.New(1)
	m := newTestMedium(t, s, cfg)
	var died []int
	m.OnDeath(func(id int) { died = append(died, id) })
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 12, Y: 10}, func(*Frame) {})
	for i := 0; i < 10; i++ {
		m.Send(Frame{Src: 0, Dst: 1, Size: 1})
	}
	s.Run(sim.MaxTime)
	if len(died) != 1 || died[0] != 0 {
		t.Fatalf("died = %v, want [0] (tx-heavy node)", died)
	}
	if m.Up(0) {
		t.Error("dead node still up")
	}
	if !m.Battery(0).Empty() {
		t.Error("dead node's battery not empty")
	}
	// 4th frame kills it (3 × 0.3 = 0.9, 4th crosses 1.0): only 4 tx.
	if got := m.Stats(0).TxFrames; got != 4 {
		t.Errorf("TxFrames = %d, want 4 (transmissions stop at death)", got)
	}
}

func TestInfiniteBatteryNeverDies(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2)) // zero EnergyConfig = infinite
	m.OnDeath(func(id int) { t.Errorf("node %d died with infinite battery", id) })
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 12, Y: 10}, func(*Frame) {})
	for i := 0; i < 1000; i++ {
		m.Send(Frame{Src: 0, Dst: 1, Size: 1000})
	}
	s.Run(sim.MaxTime)
	if m.Battery(0).Empty() {
		t.Error("infinite battery reports empty")
	}
}

func TestBatteryAccounting(t *testing.T) {
	b := NewBattery(EnergyConfig{Capacity: 10, TxPerFrame: 1, TxPerByte: 0.01, RxPerFrame: 0.5, RxPerByte: 0.005})
	if b.SpendTx(100) {
		t.Error("first tx emptied a 10J battery")
	}
	tx, rx := b.Spent()
	if tx != 2.0 || rx != 0 {
		t.Errorf("Spent = %v,%v want 2,0", tx, rx)
	}
	b.SpendRx(100)
	_, rx = b.Spent()
	if rx != 1.0 {
		t.Errorf("rx spent = %v, want 1", rx)
	}
	if b.remaining != 7.0 {
		t.Errorf("remaining = %v, want 7", b.remaining)
	}
}

func TestSendEdgeCases(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2))
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	// Destination id out of range: lost, not panicking.
	if n := m.Send(Frame{Src: 0, Dst: 99, Size: 8}); n != 0 {
		t.Error("out-of-range destination accepted")
	}
	if n := m.Send(Frame{Src: -1, Dst: 0, Size: 8}); n != 0 {
		t.Error("negative source accepted")
	}
	// Down destinations swallow frames.
	if n := m.Send(Frame{Src: 0, Dst: 1, Size: 8}); n != 0 {
		t.Error("down destination reported reachable")
	}
	// SetPos of a down node is a no-op (no panic).
	m.SetPos(1, geom.Point{X: 5, Y: 5})
	// Zero-size frames are a programming error.
	defer func() {
		if recover() == nil {
			t.Error("zero-size Send did not panic")
		}
	}()
	m.Send(Frame{Src: 0, Dst: 0, Size: 0})
}

func TestDoubleJoinPanics(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(1))
	m.Join(0, geom.Point{X: 1, Y: 1}, func(*Frame) {})
	defer func() {
		if recover() == nil {
			t.Error("double Join did not panic")
		}
	}()
	m.Join(0, geom.Point{X: 2, Y: 2}, func(*Frame) {})
}

func TestRejoinAfterLeave(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2))
	var rx capture
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 12, Y: 10}, rx.recv)
	m.Leave(1)
	m.Join(1, geom.Point{X: 12, Y: 10}, rx.recv)
	m.Send(Frame{Src: 0, Dst: 1, Size: 8})
	s.Run(sim.MaxTime)
	if len(rx.frames) != 1 {
		t.Fatal("rejoined node did not receive")
	}
}

// prebox is the fixed value payload for the alloc guard; frames carry
// it by value, so there is no caller-side boxing to exclude anymore.
var prebox = pkt(99)

// Alloc guard (ISSUE 2): once the rec and frame slabs are warm, a
// unicast Send — park, wheel, arrival — performs zero heap allocations.
func TestUnicastSendZeroAllocs(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2))
	delivered := 0
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 15, Y: 10}, func(*Frame) { delivered++ })
	// Warm up: a few deliveries populate the slabs.
	for i := 0; i < 16; i++ {
		m.Send(Frame{Src: 0, Dst: 1, Size: 8, Payload: prebox})
	}
	s.Run(sim.MaxTime)
	f := Frame{Src: 0, Dst: 1, Size: 8, Payload: prebox}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Send(f)
		s.Run(sim.MaxTime)
	})
	if allocs != 0 {
		t.Errorf("unicast Send+deliver allocates %.1f allocs/op, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("no frames delivered")
	}
}

// The wheel merge must preserve the exact interleaving between frame
// arrivals and independently scheduled events at the same instant.
func TestDeliveryInterleavesWithScheduledEvents(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(3))
	var order []string
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 15, Y: 10}, func(f *Frame) { order = append(order, "rx:"+string(rune(f.Payload.Msg.Seq))) })
	m.Send(Frame{Src: 0, Dst: 1, Size: 8, Payload: pkt('a')})
	// An event scheduled after frame a but before frame b, landing at the
	// same 2ms instant, must run between the two arrivals.
	s.Schedule(2*sim.Millisecond, func() { order = append(order, "ev") })
	m.Send(Frame{Src: 0, Dst: 1, Size: 8, Payload: pkt('b')})
	s.Run(sim.MaxTime)
	want := []string{"rx:a", "ev", "rx:b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A frame sent from inside a receive callback is queued with its own
// latency, never delivered from inside that callback.
func TestReceiveTriggeredSendDelayed(t *testing.T) {
	s := sim.New(1)
	m := newTestMedium(t, s, testConfig(2))
	var arrivals []sim.Time
	m.Join(1, geom.Point{X: 15, Y: 10}, func(*Frame) { arrivals = append(arrivals, s.Now()) })
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {
		m.Send(Frame{Src: 0, Dst: 1, Size: 8, Payload: pkt(1)})
	})
	m.Send(Frame{Src: 1, Dst: 0, Size: 8, Payload: pkt(2)})
	s.Run(sim.MaxTime)
	if len(arrivals) != 1 || arrivals[0] != 4*sim.Millisecond {
		t.Fatalf("reply arrivals = %v, want [4ms] (two hops of 2ms latency)", arrivals)
	}
}

// conservationOK asserts the per-node frame conservation law the
// invariant checker relies on: every delivery queued toward a node was
// received, lost while the node was down, or is still in flight.
func conservationOK(t *testing.T, m *Medium, when string) {
	t.Helper()
	inflight := m.InFlightTo(nil)
	for i := 0; i < m.NumNodes(); i++ {
		st := m.Stats(i)
		if st.Queued != st.RxFrames+st.LostDown+inflight[i] {
			t.Errorf("%s: node %d: queued %d != rx %d + lostdown %d + inflight %d",
				when, i, st.Queued, st.RxFrames, st.LostDown, inflight[i])
		}
	}
}

func TestFrameConservation(t *testing.T) {
	s := sim.New(7)
	m := newTestMedium(t, s, testConfig(3))
	m.Join(0, geom.Point{X: 10, Y: 10}, func(*Frame) {})
	m.Join(1, geom.Point{X: 12, Y: 10}, func(*Frame) {})
	m.Join(2, geom.Point{X: 14, Y: 10}, func(*Frame) {})

	for i := 0; i < 10; i++ {
		m.Send(Frame{Src: 0, Dst: 1, Size: 16})
		m.Send(Frame{Src: 1, Dst: -1, Size: 16}) // broadcast
	}
	conservationOK(t, m, "frames in flight")
	if m.InFlight() == 0 {
		t.Error("expected frames in flight before delivery")
	}

	// Take node 1 down while deliveries are pending: its queued frames
	// must land in LostDown, not vanish.
	m.Leave(1)
	s.Run(sim.MaxTime)
	conservationOK(t, m, "after down-node drain")
	if m.Stats(1).LostDown == 0 {
		t.Error("LostDown not incremented for a down receiver")
	}
	if m.InFlight() != 0 {
		t.Errorf("InFlight = %d after drain, want 0", m.InFlight())
	}

	// Back up: subsequent deliveries count as received again.
	m.Join(1, geom.Point{X: 12, Y: 10}, func(*Frame) {})
	m.Send(Frame{Src: 0, Dst: 1, Size: 16})
	s.Run(sim.MaxTime)
	conservationOK(t, m, "after rejoin")
}
