package manetp2p

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"manetp2p/internal/p2p"
	"manetp2p/internal/trace"
)

// traceEvents runs WriteTrace on sc and decodes the stream.
func traceEvents(t *testing.T, sc Scenario) []trace.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(sc, &buf); err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for dec := json.NewDecoder(&buf); dec.More(); {
		var e trace.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e)
	}
	return evs
}

// The trace accounts for the world it describes. Replayed event by
// event, it must land on the state an untraced run of the same
// replication holds at the horizon: installConn and closeConn are the
// only writers of a servent's connections and each emits one event, so
// per node established minus closed is its connection count; setRole
// emits every Hybrid role change, so a node's last "from->to" names its
// final role; and a node is off the air while any cause holds it down,
// each cause traced as it is set and cleared, so per node each cause's
// down and up events alternate, starting with "down".
func TestTraceConservesConnectionsRolesAndChurn(t *testing.T) {
	faults, err := LoadFaultPlan("testdata/selfcheck_faults.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := LoadWorkloadPlan("testdata/selfcheck_workload.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			sc := DefaultScenario(20, alg)
			sc.Duration = Seconds(900)
			sc.Range = 20 // a connected overlay at 20 nodes in the paper's arena
			sc.Churn = ChurnConfig{MeanUptime: Seconds(200), MeanDowntime: Seconds(60)}
			sc.Faults, sc.Workload = faults, plan
			evs := traceEvents(t, sc)

			s, err := NewSimulation(sc)
			if err != nil {
				t.Fatal(err)
			}
			s.Step(sc.Duration)

			open := make([]int, sc.NumNodes)
			role := make([]string, sc.NumNodes)
			held := map[string][]bool{"churn": make([]bool, sc.NumNodes), "fault": make([]bool, sc.NumNodes)}
			changes := map[string]int{}
			var established, queries, roleChanges int
			for _, e := range evs {
				switch {
				case e.Kind == trace.KindConn && strings.HasPrefix(e.What, "established"):
					open[e.Node]++
					established++
				case e.Kind == trace.KindConn && strings.HasPrefix(e.What, "closed"):
					open[e.Node]--
				case e.Kind == trace.KindQuery:
					queries++
				case e.Kind == trace.KindState:
					from, to, ok := strings.Cut(e.What, "->")
					if !ok || (role[e.Node] != "" && from != role[e.Node]) {
						t.Errorf("node %d at %v: role change %q after %q", e.Node, e.At, e.What, role[e.Node])
					}
					role[e.Node] = to
					roleChanges++
				case e.Kind == trace.KindNode:
					cause, dir, _ := strings.Cut(e.What, " ")
					down, ok := held[cause]
					if !ok || (dir == "down") == down[e.Node] {
						t.Errorf("node %d at %v: %q unknown or twice in a row", e.Node, e.At, e.What)
						continue
					}
					down[e.Node] = !down[e.Node]
					changes[cause]++
				}
			}
			for i, sv := range s.Net.Servents {
				if sv == nil {
					continue
				}
				if open[i] != sv.ConnCount() {
					t.Errorf("node %d: established - closed = %d, %d connections at the horizon", i, open[i], sv.ConnCount())
				}
				if final := sv.State().String(); role[i] != "" && role[i] != final {
					t.Errorf("node %d: last role change ends in %s, final role %s", i, role[i], final)
				} else if role[i] == "" && sv.State() != p2p.StateInitial {
					t.Errorf("node %d: no role change traced, final role %s", i, final)
				}
			}
			if established == 0 || queries == 0 || changes["churn"] == 0 || changes["fault"] == 0 || (alg == Hybrid) != (roleChanges > 0) {
				t.Errorf("%d connections, %d query events, %d churn and %d fault events, %d role changes: the scenario does not exercise what it checks",
					established, queries, changes["churn"], changes["fault"], roleChanges)
			}
		})
	}
}
