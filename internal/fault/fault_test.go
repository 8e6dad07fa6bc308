package fault

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"manetp2p/internal/geom"
	"manetp2p/internal/sim"
)

func allKindsPlan() Plan {
	return Plan{Events: []Event{
		PartitionEvent(600*sim.Second, 60*sim.Second, AxisX, 50),
		JamEvent(900*sim.Second, 120*sim.Second, geom.Point{X: 25, Y: 75}, 20, 0.9),
		LossBurstEvent(1200*sim.Second, 30*sim.Second, 0.5),
		CrashGroupEvent(1500*sim.Second, 300*sim.Second, 10),
		LinkFlapEvent(1800*sim.Second, 240*sim.Second, 20*sim.Second, 5*sim.Second),
	}}
}

func TestPlanValidate(t *testing.T) {
	if err := allKindsPlan().Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Fatalf("empty plan rejected: %v", err)
	}
	bads := []Event{
		{Kind: Partition, At: -sim.Second, Duration: sim.Second},
		{Kind: Partition, At: 0, Duration: 0},
		{Kind: Partition, At: sim.Horizon + 1, Duration: sim.Second},
		{Kind: Partition, At: sim.MaxTime - 1, Duration: sim.MaxTime - 1}, // At + Duration overflows
		{Kind: Partition, At: 0, Duration: sim.Second, Axis: Axis(7)},
		{Kind: Jam, At: 0, Duration: sim.Second, Radius: 0, Loss: 0.5},
		{Kind: Jam, At: 0, Duration: sim.Second, Radius: 5, Loss: 1.5},
		{Kind: LossBurst, At: 0, Duration: sim.Second, Loss: 0},
		{Kind: CrashGroup, At: 0, Duration: sim.Second, Count: -1},
		{Kind: CrashGroup, At: 0, Duration: sim.Second, Count: 0, Fraction: 0},
		{Kind: LinkFlap, At: 0, Duration: sim.Second, Period: 0},
		{Kind: LinkFlap, At: 0, Duration: sim.Second, Period: sim.Second, DownFor: 2 * sim.Second},
		{Kind: Kind(99), At: 0, Duration: sim.Second},
	}
	for i, ev := range bads {
		if err := (Plan{Events: []Event{ev}}).Validate(); err == nil {
			t.Errorf("bad event %d accepted: %+v", i, ev)
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	plan := allKindsPlan()
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var got Plan
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, got) {
		t.Errorf("round trip changed plan:\n got %+v\nwant %+v", got, plan)
	}
	// Times serialize as seconds, the hand-authored unit.
	if !strings.Contains(string(data), `"at":600`) {
		t.Errorf("partition At not in seconds: %s", data)
	}
}

func TestPlanJSONUnknownType(t *testing.T) {
	var p Plan
	err := json.Unmarshal([]byte(`{"events":[{"type":"meteor","at":1,"duration":1}]}`), &p)
	if err == nil {
		t.Fatal("unknown event type accepted")
	}
	for _, want := range kindNames {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list valid type %q", err, want)
		}
	}
}

// Times are float seconds, so a file can state one no sim.Time holds;
// the decoder refuses it by field name before converting (the conversion
// of an out-of-range float is platform-defined), and the horizon itself
// is still a legal time.
func TestPlanJSONBoundsTimes(t *testing.T) {
	for field, doc := range map[string]string{
		"at":       `{"events":[{"type":"lossburst","at":1e300,"duration":1,"loss":0.5}]}`,
		"duration": `{"events":[{"type":"lossburst","at":1,"duration":1.1e9,"loss":0.5}]}`,
		"period":   `{"events":[{"type":"linkflap","at":1,"duration":1,"period":-1e18,"downFor":1}]}`,
		"downFor":  `{"events":[{"type":"linkflap","at":1,"duration":1,"period":2,"downFor":9.3e12}]}`,
	} {
		var p Plan
		if err := json.Unmarshal([]byte(doc), &p); err == nil || !strings.Contains(err.Error(), field+" ") {
			t.Errorf("%s: err = %v, want an error naming %q", doc, err, field)
		}
	}
	var p Plan
	if err := json.Unmarshal([]byte(`{"events":[{"type":"lossburst","at":1e9,"duration":1e9,"loss":0.5}]}`), &p); err != nil {
		t.Fatalf("times at the horizon refused: %v", err)
	}
	if err := p.Validate(); err != nil || p.Events[0].Clears() != 2*sim.Horizon {
		t.Errorf("horizon plan: Validate = %v, Clears = %v", err, p.Events[0].Clears())
	}
}

func TestPlanJSONBadAxis(t *testing.T) {
	var p Plan
	err := json.Unmarshal([]byte(`{"events":[{"type":"partition","at":1,"duration":1,"axis":"z"}]}`), &p)
	if err == nil || !strings.Contains(err.Error(), "axis") {
		t.Fatalf("bad axis not rejected clearly: %v", err)
	}
}

// world is a minimal Hooks target: static node positions, an up set and
// a crash log.
type world struct {
	pos    []geom.Point
	up     []bool
	filter func(src, dst int) bool
	downs  []int
	ups    []int
}

func newWorld(pos []geom.Point) *world {
	w := &world{pos: pos, up: make([]bool, len(pos))}
	for i := range w.up {
		w.up[i] = true
	}
	return w
}

func (w *world) hooks() Hooks {
	return Hooks{
		Pos:           func(id int) geom.Point { return w.pos[id] },
		Up:            func(id int) bool { return w.up[id] },
		SetLinkFilter: func(f func(src, dst int) bool) { w.filter = f },
		NodeDown:      func(id int) { w.up[id] = false; w.downs = append(w.downs, id) },
		NodeUp:        func(id int) { w.up[id] = true; w.ups = append(w.ups, id) },
		Members: func() []int {
			out := make([]int, len(w.pos))
			for i := range out {
				out[i] = i
			}
			return out
		},
	}
}

func (w *world) gated(src, dst int) bool { return w.filter != nil && w.filter(src, dst) }

func TestPartitionGatesCrossSideOnly(t *testing.T) {
	s := sim.New(1)
	w := newWorld([]geom.Point{{X: 10, Y: 50}, {X: 90, Y: 50}, {X: 20, Y: 50}})
	plan := Plan{Events: []Event{PartitionEvent(100*sim.Second, 50*sim.Second, AxisX, 50)}}
	New(s, s.NewRand(), plan, w.hooks()).Arm()

	s.Run(99 * sim.Second)
	if w.gated(0, 1) {
		t.Error("gated before the partition started")
	}
	s.Run(120 * sim.Second)
	if !w.gated(0, 1) || !w.gated(1, 0) {
		t.Error("cross-side delivery not gated during partition")
	}
	if w.gated(0, 2) {
		t.Error("same-side delivery gated during partition")
	}
	s.Run(151 * sim.Second)
	if w.gated(0, 1) {
		t.Error("still gated after the partition cleared")
	}
}

func TestJamAndBurstLoss(t *testing.T) {
	s := sim.New(1)
	// Node 0 inside the jam disc, nodes 1 and 2 far outside.
	w := newWorld([]geom.Point{{X: 5, Y: 5}, {X: 80, Y: 80}, {X: 90, Y: 90}})
	plan := Plan{Events: []Event{
		JamEvent(10*sim.Second, 10*sim.Second, geom.Point{X: 0, Y: 0}, 10, 1),
		LossBurstEvent(40*sim.Second, 10*sim.Second, 1),
	}}
	New(s, s.NewRand(), plan, w.hooks()).Arm()

	s.Run(15 * sim.Second)
	if !w.gated(0, 1) || !w.gated(1, 0) {
		t.Error("delivery touching the jammed region not dropped at loss=1")
	}
	if w.gated(1, 2) {
		t.Error("delivery outside the jammed region dropped")
	}
	s.Run(45 * sim.Second)
	if !w.gated(1, 2) {
		t.Error("lossburst at loss=1 did not drop a delivery")
	}
	s.Run(60 * sim.Second)
	if w.gated(1, 2) {
		t.Error("still dropping after the burst cleared")
	}
}

func TestLinkFlapToggles(t *testing.T) {
	s := sim.New(1)
	w := newWorld([]geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}})
	plan := Plan{Events: []Event{
		LinkFlapEvent(10*sim.Second, 40*sim.Second, 20*sim.Second, 5*sim.Second),
	}}
	New(s, s.NewRand(), plan, w.hooks()).Arm()

	s.Run(12 * sim.Second) // inside first down window [10,15)
	if !w.gated(0, 1) {
		t.Error("links not down in the first flap window")
	}
	s.Run(17 * sim.Second) // between windows
	if w.gated(0, 1) {
		t.Error("links down between flap windows")
	}
	s.Run(32 * sim.Second) // second window [30,35)
	if !w.gated(0, 1) {
		t.Error("links not down in the second flap window")
	}
	s.Run(60 * sim.Second) // event over
	if w.gated(0, 1) {
		t.Error("links down after the flap event cleared")
	}
}

func TestCrashGroupDownsAndRestarts(t *testing.T) {
	s := sim.New(7)
	pos := make([]geom.Point, 20)
	w := newWorld(pos)
	plan := Plan{Events: []Event{CrashGroupEvent(50*sim.Second, 100*sim.Second, 5)}}
	New(s, s.NewRand(), plan, w.hooks()).Arm()

	s.Run(60 * sim.Second)
	if len(w.downs) != 5 {
		t.Fatalf("crashed %d nodes, want 5", len(w.downs))
	}
	down := 0
	for _, up := range w.up {
		if !up {
			down++
		}
	}
	if down != 5 {
		t.Errorf("%d nodes down during the event, want 5", down)
	}
	s.Run(200 * sim.Second)
	if !reflect.DeepEqual(w.downs, w.ups) {
		t.Errorf("restarted %v, crashed %v", w.ups, w.downs)
	}
	for i, up := range w.up {
		if !up {
			t.Errorf("node %d still down after restart", i)
		}
	}
}

func TestCrashFraction(t *testing.T) {
	s := sim.New(3)
	w := newWorld(make([]geom.Point, 40))
	plan := Plan{Events: []Event{CrashFractionEvent(10*sim.Second, 20*sim.Second, 0.25)}}
	New(s, s.NewRand(), plan, w.hooks()).Arm()
	s.Run(15 * sim.Second)
	if len(w.downs) != 10 {
		t.Errorf("crashed %d nodes, want 10 (25%% of 40)", len(w.downs))
	}
}

func TestCrashDeterminism(t *testing.T) {
	run := func() []int {
		s := sim.New(42)
		w := newWorld(make([]geom.Point, 30))
		plan := Plan{Events: []Event{CrashGroupEvent(5*sim.Second, 10*sim.Second, 8)}}
		New(s, s.NewRand(), plan, w.hooks()).Arm()
		s.Run(6 * sim.Second)
		return w.downs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed chose different victims: %v vs %v", a, b)
	}
}
