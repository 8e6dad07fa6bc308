package workload

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"manetp2p/internal/sim"
)

func newEngine(t *testing.T, plan Plan, nodes, files int) (*sim.Sim, *Engine) {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	s := sim.New(1)
	return s, New(s, s.NewRand(), plan, nodes, files, nil)
}

func TestParseProcess(t *testing.T) {
	for p := range Process(len(processNames)) {
		got, err := ParseProcess(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProcess(%q) = %v, %v", p.String(), got, err)
		}
	}
	if got, err := ParseProcess(""); err != nil || got != Uniform {
		t.Errorf("ParseProcess(\"\") = %v, %v; want Uniform", got, err)
	}
	_, err := ParseProcess("zipfian")
	if err == nil {
		t.Fatal("unknown process accepted")
	}
	for p := range Process(len(processNames)) {
		if !strings.Contains(err.Error(), p.String()) {
			t.Errorf("error %q does not list process %q", err, p.String())
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"negative uniform gap", Plan{Arrival: Arrival{GapMin: -sim.Second}}},
		{"inverted uniform bounds", Plan{Arrival: Arrival{GapMin: 10 * sim.Second, GapMax: 5 * sim.Second}}},
		{"zero poisson rate", Plan{Arrival: Arrival{Process: Poisson}}},
		{"excessive rate", Plan{Arrival: Arrival{Process: Poisson, Rate: maxRate + 1}}},
		{"amplitude one", Plan{Arrival: Arrival{Process: Diurnal, Rate: 1, Amplitude: 1}}},
		{"unknown process", Plan{Arrival: Arrival{Process: Process(len(processNames))}}},
		{"nameless class", Plan{Sessions: Sessions{Classes: []SessionClass{{Weight: 1}}}}},
		{"zero-weight class", Plan{Sessions: Sessions{Classes: []SessionClass{{Name: "x"}}}}},
		{"uptime without downtime", Plan{Sessions: Sessions{Classes: []SessionClass{
			{Name: "x", Weight: 1, MeanUptime: sim.Second}}}}},
		{"hot boost above one", Plan{Phases: []Phase{{Name: "p", HotBoost: 1.5}}}},
		{"phase past the horizon", Plan{Phases: []Phase{{Name: "p", Start: sim.Horizon + 1}}}},
		{"phases out of order", Plan{Phases: []Phase{
			{Name: "b", Start: 100 * sim.Second}, {Name: "a", Start: 50 * sim.Second}}}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		{Arrival: Arrival{Process: Poisson, Rate: 0.5}},
		{
			Arrival:    Arrival{Process: OnOff, Rate: 0.1, MeanOn: 30 * sim.Second, MeanOff: 90 * sim.Second},
			Popularity: Popularity{Skew: 1.2, DriftPerHour: -0.3, RotateEvery: 900 * sim.Second, RotateStep: 2},
			Sessions:   DefaultSessions(),
			Phases: []Phase{
				{Name: "ramp", RateScale: 0.5},
				{Name: "flash", Start: 600 * sim.Second, RateScale: 3, HotFiles: 3, HotBoost: 0.8},
			},
		},
		{Arrival: Arrival{Process: Diurnal, Rate: 0.05, Period: 1200 * sim.Second, Amplitude: 0.5}},
		// A field the process ignores still round-trips (FuzzPlan found
		// the encoder dropping it).
		{Arrival: Arrival{Process: Uniform, Amplitude: 1}},
	}
	for i, p := range plans {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("plan %d: marshal: %v", i, err)
		}
		var back Plan
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("plan %d: unmarshal %s: %v", i, data, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Errorf("plan %d: round trip through %s changed the plan:\n got %+v\nwant %+v", i, data, back, p)
		}
	}
}

func TestUnmarshalRejectsUnknownProcess(t *testing.T) {
	var p Plan
	err := json.Unmarshal([]byte(`{"arrival": {"process": "fractal"}}`), &p)
	if err == nil {
		t.Fatal("unknown process accepted")
	}
	for _, name := range []string{"uniform", "poisson", "onoff", "diurnal"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// Every time field of the four decoders is float seconds; one beyond the
// plan horizon is refused by name before it is converted.
func TestUnmarshalBoundsTimes(t *testing.T) {
	for field, doc := range map[string]string{
		"gapMax":       `{"arrival":{"process":"uniform","gapMin":1,"gapMax":1e300}}`,
		"meanOff":      `{"arrival":{"process":"onoff","rate":0.1,"meanOff":-1e18}}`,
		"rotateEvery":  `{"popularity":{"rotateEvery":9.3e12}}`,
		"meanDowntime": `{"sessions":{"classes":[{"name":"x","weight":1,"meanUptime":1,"meanDowntime":1.1e9}]}}`,
		"start":        `{"phases":[{"name":"p","start":1e300}]}`,
	} {
		var p Plan
		if err := json.Unmarshal([]byte(doc), &p); err == nil || !strings.Contains(err.Error(), field+" ") {
			t.Errorf("%s: err = %v, want an error naming %q", doc, err, field)
		}
	}
	var p Plan
	if err := json.Unmarshal([]byte(`{"phases":[{"name":"p","start":1e9}]}`), &p); err != nil || p.Validate() != nil {
		t.Errorf("a phase at the horizon refused: %v / %v", err, p.Validate())
	}
}

func TestUniformDefaultsMatchPaper(t *testing.T) {
	a := Arrival{}.withDefaults()
	if a.GapMin != 15*sim.Second || a.GapMax != 45*sim.Second {
		t.Fatalf("zero arrival defaults to [%v, %v], want [15s, 45s]", a.GapMin, a.GapMax)
	}
}

func TestNextGapBoundsPerProcess(t *testing.T) {
	plans := map[string]Plan{
		"uniform": {},
		"poisson": {Arrival: Arrival{Process: Poisson, Rate: 0.2}},
		"onoff":   {Arrival: Arrival{Process: OnOff, Rate: 0.5}},
		"diurnal": {Arrival: Arrival{Process: Diurnal, Rate: 0.2}},
	}
	for name, plan := range plans {
		_, e := newEngine(t, plan, 10, 20)
		for i := 0; i < 2000; i++ {
			g := e.NextGap(i % 10)
			if g < minGap {
				t.Fatalf("%s: gap %v below minGap", name, g)
			}
			if name == "uniform" && (g < 15*sim.Second || g > 45*sim.Second) {
				t.Fatalf("uniform gap %v outside [15s, 45s]", g)
			}
		}
		if v := e.Counters().BoundsViol; v != 0 {
			t.Errorf("%s: %d bounds violations on honest draws", name, v)
		}
	}
}

func TestRateScaleShortensGaps(t *testing.T) {
	slow := Plan{}
	fast := Plan{Sessions: Sessions{Classes: []SessionClass{{Name: "hot", Weight: 1, RateScale: 3}}}}
	_, es := newEngine(t, slow, 1, 20)
	_, ef := newEngine(t, fast, 1, 20)
	sum := func(e *Engine) (total sim.Time) {
		for i := 0; i < 500; i++ {
			total += e.NextGap(0)
		}
		return total
	}
	if s, f := sum(es), sum(ef); float64(f) > 0.5*float64(s) {
		t.Fatalf("RateScale 3 barely shortened gaps: slow %v, fast %v", s, f)
	}
}

func TestPhaseRateScaleApplies(t *testing.T) {
	plan := Plan{Phases: []Phase{{Name: "flash", Start: 100 * sim.Second, RateScale: 4}}}
	s, e := newEngine(t, plan, 1, 20)
	var before sim.Time
	for i := 0; i < 300; i++ {
		before += e.NextGap(0)
	}
	s.Run(200 * sim.Second)
	var during sim.Time
	for i := 0; i < 300; i++ {
		during += e.NextGap(0)
	}
	if float64(during) > 0.5*float64(before) {
		t.Fatalf("flash phase barely shortened gaps: before %v, during %v", before, during)
	}
}

func TestPickFileSkipsHeld(t *testing.T) {
	_, e := newEngine(t, Plan{}, 1, 5)
	held := []bool{true, false, true, false, true}
	for i := 0; i < 200; i++ {
		f := e.PickFile(0, held)
		if f < 0 || held[f] {
			t.Fatalf("picked held or invalid file %d", f)
		}
	}
	all := []bool{true, true, true, true, true}
	if f := e.PickFile(0, all); f != -1 {
		t.Fatalf("picked %d though everything is held", f)
	}
}

func TestPickFileZipfSkew(t *testing.T) {
	_, e := newEngine(t, Plan{Popularity: Popularity{Skew: 1.5}}, 1, 10)
	held := make([]bool, 10)
	counts := make([]int, 10)
	for i := 0; i < 5000; i++ {
		counts[e.PickFile(0, held)]++
	}
	if counts[0] <= counts[9] {
		t.Fatalf("rank 0 (%d picks) not more popular than rank 9 (%d)", counts[0], counts[9])
	}
}

func TestRotationShiftsHotSet(t *testing.T) {
	plan := Plan{Popularity: Popularity{Skew: 3, RotateEvery: 60 * sim.Second, RotateStep: 1}}
	s, e := newEngine(t, plan, 1, 10)
	held := make([]bool, 10)
	top := func() int {
		counts := make([]int, 10)
		for i := 0; i < 2000; i++ {
			counts[e.PickFile(0, held)]++
		}
		best := 0
		for f, c := range counts {
			if c > counts[best] {
				best = f
			}
		}
		_ = best
		return best
	}
	first := top()
	s.Run(60 * sim.Second)
	second := top()
	if want := (first + 1) % 10; second != want {
		t.Fatalf("after one rotation hot file is %d, want %d (was %d)", second, want, first)
	}
}

func TestSkewDriftClamps(t *testing.T) {
	plan := Plan{Popularity: Popularity{Skew: 1, DriftPerHour: -4}}
	s, e := newEngine(t, plan, 1, 10)
	s.Run(2 * 3600 * sim.Second)
	if got := e.skew(s.Now()); got != 0 {
		t.Fatalf("drifted skew %v, want clamp at 0", got)
	}
	plan = Plan{Popularity: Popularity{Skew: 1, DriftPerHour: 100}}
	s, e = newEngine(t, plan, 1, 10)
	s.Run(3600 * sim.Second)
	if got := e.skew(s.Now()); got != maxSkew {
		t.Fatalf("drifted skew %v, want clamp at %v", got, maxSkew)
	}
}

func TestFlashCrowdFocusesPicks(t *testing.T) {
	plan := Plan{
		Popularity: Popularity{Skew: 0.01},
		Phases:     []Phase{{Name: "flash", Start: 0, HotFiles: 2, HotBoost: 0.9}},
	}
	_, e := newEngine(t, plan, 1, 20)
	held := make([]bool, 20)
	hot := 0
	const picks = 5000
	for i := 0; i < picks; i++ {
		if f := e.PickFile(0, held); f < 2 {
			hot++
		}
	}
	if frac := float64(hot) / picks; frac < 0.8 {
		t.Fatalf("flash crowd hit the hot set only %.0f%% of picks, want >= 80%%", 100*frac)
	}
}

func TestClassAssignmentFollowsWeights(t *testing.T) {
	const nodes = 4000
	_, e := newEngine(t, Plan{Sessions: DefaultSessions()}, nodes, 10)
	counts := make([]int, 3)
	for _, ci := range e.classOf {
		counts[ci]++
	}
	for ci, want := range []float64{0.2, 0.5, 0.3} {
		got := float64(counts[ci]) / nodes
		if math.Abs(got-want) > 0.05 {
			t.Errorf("class %d population %.3f, want ~%.1f", ci, got, want)
		}
	}
}

func TestChurnMeansComposition(t *testing.T) {
	plan := Plan{Sessions: Sessions{Classes: []SessionClass{
		{Name: "absolute", Weight: 1, MeanUptime: 100 * sim.Second, MeanDowntime: 10 * sim.Second},
	}}}
	_, e := newEngine(t, plan, 1, 10)
	up, down := e.ChurnMeans(0, 600*sim.Second, 120*sim.Second)
	if up != 100*sim.Second || down != 10*sim.Second {
		t.Fatalf("absolute means did not win: %v/%v", up, down)
	}
	if !e.SessionChurn(0) {
		t.Fatal("absolute-mean class should churn on its own")
	}

	plan = Plan{Sessions: Sessions{Classes: []SessionClass{
		{Name: "scaled", Weight: 1, UptimeScale: 2, DowntimeScale: 0.5},
	}}}
	_, e = newEngine(t, plan, 1, 10)
	up, down = e.ChurnMeans(0, 600*sim.Second, 120*sim.Second)
	if up != 1200*sim.Second || down != 60*sim.Second {
		t.Fatalf("scales did not compose: %v/%v", up, down)
	}
	if e.SessionChurn(0) {
		t.Fatal("scale-only class must not churn without a scenario churn config")
	}
	if up, down = e.ChurnMeans(0, 0, 0); up != 0 || down != 0 {
		t.Fatalf("scaling a disabled base invented churn: %v/%v", up, down)
	}
}

func TestTelemetryConservation(t *testing.T) {
	_, e := newEngine(t, Plan{}, 4, 10)
	// Node 0: offered, retried twice, issued, resolved.
	e.Offered(0)
	e.Offered(0)
	e.Offered(0)
	e.Issued(0)
	e.FirstAnswer(0)
	e.Done(0, true)
	// Node 1: offered, issued, expired.
	e.Offered(1)
	e.Issued(1)
	e.Done(1, false)
	// Node 2: offered, issued, aborted by churn.
	e.Offered(2)
	e.Issued(2)
	e.Aborted(2)
	// Node 3: offered, still waiting for a peer (never issued).
	e.Offered(3)

	ct := e.Counters()
	want := Counters{Offered: 4, Retries: 2, Issued: 3,
		Resolved: 1, Expired: 1, Aborted: 1, InFlight: 0, Pending: 1}
	if ct != want {
		t.Fatalf("counters %+v, want %+v", ct, want)
	}
	if ct.Offered != ct.Resolved+ct.Expired+ct.Aborted+ct.Pending {
		t.Fatal("offered conservation broken")
	}
	if ct.Issued != ct.Resolved+ct.Expired+ct.Aborted+ct.InFlight {
		t.Fatal("issued conservation broken")
	}

	tel := e.Snapshot()
	if tel.Offered != 4 || tel.Resolved != 1 || len(tel.TTFR) != 1 || len(tel.Completion) != 1 {
		t.Fatalf("snapshot %+v inconsistent with ledger", tel)
	}
	if len(tel.Classes) != 1 || tel.Classes[0].Nodes != 4 || tel.Classes[0].Issued != 3 {
		t.Fatalf("class stats %+v, want one class with 4 nodes, 3 issued", tel.Classes)
	}
}

func TestEngineDeterminism(t *testing.T) {
	plan := Plan{
		Arrival:    Arrival{Process: OnOff, Rate: 0.2},
		Popularity: Popularity{Skew: 1.1, RotateEvery: 30 * sim.Second},
		Sessions:   DefaultSessions(),
		Phases:     []Phase{{Name: "flash", Start: 50 * sim.Second, RateScale: 2, HotFiles: 2, HotBoost: 0.5}},
	}
	run := func() []int64 {
		s := sim.New(7)
		e := New(s, s.NewRand(), plan, 8, 15, nil)
		held := make([]bool, 15)
		var out []int64
		for i := 0; i < 400; i++ {
			out = append(out, int64(e.NextGap(i%8)), int64(e.PickFile(i%8, held)))
			if i%50 == 49 {
				s.Run(s.Now() + 10*sim.Second)
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}
