package workload_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"manetp2p/internal/manet"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
	"manetp2p/internal/workload"
)

// FuzzPlan: whatever the bytes, decoding a plan returns an error, a plan
// Validate refuses, or a plan that survives its own encoding — never a
// panic, and decode → encode → decode is a fixpoint. An accepted plan
// is also runnable: driving a small world's queries, it panics neither
// while the world is wired nor in its first simulated seconds.
func FuzzPlan(f *testing.F) {
	seed, err := os.ReadFile("../../testdata/selfcheck_workload.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"arrival":{"process":"uniform","gapMin":15,"gapMax":45}}`))
	f.Add([]byte(`{"arrival":{"process":"onoff","rate":0.1,"meanOn":60,"meanOff":180},"popularity":{"rotateEvery":900,"rotateStep":2}}`))
	f.Add([]byte(`{"arrival":{"process":"diurnal","rate":0.05,"period":1200,"amplitude":0.5},"phases":[]}`))
	f.Add([]byte(`{"phases":[{"name":"p","start":1e300}]}`))
	f.Add([]byte(`{"arrival":{"process":"uniform","gapMin":1e9,"gapMax":1e9},"popularity":{"rotateEvery":9.3e12}}`))
	// Busy from the first second: every phase, session class and
	// popularity rule acts inside the seconds the world runs.
	f.Add([]byte(`{"arrival":{"process":"onoff","rate":2,"meanOn":2,"meanOff":1},
		"popularity":{"skew":0.5,"driftPerHour":3600,"rotateEvery":2,"rotateStep":3},
		"sessions":{"classes":[{"name":"a","weight":1,"rateScale":2,"meanUptime":2,"meanDowntime":1},{"name":"b","weight":1}]},
		"phases":[{"name":"x","start":0},{"name":"flash","start":3,"rateScale":4,"hotFiles":50,"hotBoost":1},{"name":"y","start":6,"rateScale":0.1}]}`))
	// Typoed keys, which once loaded as a default rate and no phases.
	f.Add([]byte(`{"arrival":{"process":"poisson","rate":0.1,"rat":3}}`))
	f.Add([]byte(`{"arrival":{"process":"poisson","rate":0.1},"phase":[{"name":"p","start":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var plan workload.Plan
		if sim.DecodeStrict(data, &plan) != nil || plan.Validate() != nil {
			return
		}
		enc, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		var again workload.Plan
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("accepted plan's encoding %s does not decode: %v", enc, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("accepted plan's encoding %s is refused: %v", enc, err)
		}
		// omitempty: an empty list comes back absent.
		if len(plan.Phases) == 0 {
			plan.Phases = nil
		}
		if len(plan.Sessions.Classes) == 0 {
			plan.Sessions.Classes = nil
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("decode → encode → decode moved the plan:\n in: %+v\nout: %+v\nvia %s", plan, again, enc)
		}
		sc := smallWorld()
		sc.Workload = &plan
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
