package fault_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"manetp2p/internal/fault"
	"manetp2p/internal/geom"
	"manetp2p/internal/manet"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
)

// FuzzPlan: whatever the bytes, decoding a plan returns an error, a plan
// Validate refuses, or a plan that survives its own encoding — never a
// panic, and decode → encode → decode is a fixpoint. An accepted plan
// is also runnable: scripted onto a small world, it panics neither while
// the world is wired nor in its first simulated seconds.
func FuzzPlan(f *testing.F) {
	seed, err := os.ReadFile("../../testdata/selfcheck_faults.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// Every kind, early enough to fire in the seconds the world runs.
	all, err := json.Marshal(fault.Plan{Events: []fault.Event{
		fault.PartitionEvent(2*sim.Second, 3*sim.Second, fault.AxisX, 20),
		fault.JamEvent(sim.Second, 4*sim.Second, geom.Point{X: 10, Y: 30}, 10, 0.9),
		fault.LossBurstEvent(3*sim.Second, 2*sim.Second, 0.5),
		fault.CrashGroupEvent(4*sim.Second, 3*sim.Second, 3),
		fault.CrashFractionEvent(6*sim.Second, 2*sim.Second, 0.5),
		fault.LinkFlapEvent(sim.Second, 6*sim.Second, 2*sim.Second, 500*sim.Millisecond),
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all)
	f.Add([]byte(`{"events":[{"type":"crashgroup","at":0.000001,"duration":1e-6,"fraction":1}]}`))
	f.Add([]byte(`{"events":[{"type":"crashgroup","at":1,"duration":2,"count":1000}]}`))
	f.Add([]byte(`{"events":[{"type":"lossburst","at":1e300,"duration":1,"loss":0.5}]}`))
	f.Add([]byte(`{"events":[{"type":"linkflap","at":1e9,"duration":1e9,"period":9.3e12,"downFor":1}]}`))
	// A typoed key, which once loaded as a partition on the x axis.
	f.Add([]byte(`{"events":[{"type":"partition","at":60,"duration":30,"axs":"y","pos":50}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var plan fault.Plan
		if sim.DecodeStrict(data, &plan) != nil || plan.Validate() != nil {
			return
		}
		enc, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		var again fault.Plan
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("accepted plan's encoding %s does not decode: %v", enc, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("accepted plan's encoding %s is refused: %v", enc, err)
		}
		if len(plan.Events) == 0 {
			plan.Events = nil // omitempty: "events": [] comes back absent
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("decode → encode → decode moved the plan:\n in: %+v\nout: %+v\nvia %s", plan, again, enc)
		}
		sc := smallWorld()
		sc.Faults = plan
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("an accepted plan panicked: %v\n%s", r, enc)
			}
		}()
		n, err := manet.Build(sc, 0, manet.Options{})
		if err != nil {
			t.Fatalf("an accepted plan does not build: %v\n%s", err, enc)
		}
		n.Run(10 * sim.Second)
	})
}

// smallWorld is a 12-node world dense enough to be connected, with every
// overlay timer short enough to fire in its first ten seconds.
func smallWorld() manet.Scenario {
	sc := manet.DefaultScenario(12, p2p.Hybrid)
	sc.AreaSide, sc.Range = 40, 15
	sc.Churn = manet.ChurnConfig{MeanUptime: 3 * sim.Second, MeanDowntime: sim.Second}
	p := &sc.Params
	p.JoinStaggerMax, p.TimerInitial, p.TimerBasic, p.PingInterval = sim.Second, 2*sim.Second, 2*sim.Second, 3*sim.Second
	p.QueryCollect, p.QueryGapMin, p.QueryGapMax = 2*sim.Second, sim.Second, 2*sim.Second
	return sc
}
