package manetp2p

import (
	"encoding/json"
	"sync"
	"testing"

	"manetp2p/internal/sim"
)

// resultJSON renders a Result for whole-value comparison; any field
// that diverges shows up as a byte difference.
func resultJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPoolRunMatchesRun pins the refactor invariant: Run is now a
// throwaway-pool wrapper, so running a scenario through an explicit
// Pool must reproduce Run's results exactly.
func TestPoolRunMatchesRun(t *testing.T) {
	sc := quickScenario(Regular, 18)
	sc.Replications = 3
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewPool(2).Run(sc, Outputs{})
	if err != nil {
		t.Fatal(err)
	}
	if w, g := resultJSON(t, want), resultJSON(t, got); string(w) != string(g) {
		t.Error("Pool.Run diverged from Run on the same scenario")
	}
}

// TestPoolSharedAcrossPointsMatchesSequential exercises cmd/sweep's
// mode of operation: several scenario points running concurrently under
// one shared worker budget. Replications are independently seeded, so
// every point must produce exactly the results it produces sequentially
// no matter how the shared pool interleaves them.
func TestPoolSharedAcrossPointsMatchesSequential(t *testing.T) {
	points := []Scenario{
		quickScenario(Basic, 16),
		quickScenario(Regular, 16),
		quickScenario(Random, 16),
	}
	want := make([][]byte, len(points))
	for i, sc := range points {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultJSON(t, res)
	}

	pool := NewPool(2)
	got := make([][]byte, len(points))
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for i := range points {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := pool.Run(points[i], Outputs{})
			if err != nil {
				errs[i] = err
				return
			}
			// json.Marshal directly: t.Fatal is off-limits off the
			// test goroutine.
			got[i], errs[i] = json.Marshal(res)
		}(i)
	}
	wg.Wait()
	for i := range points {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if string(want[i]) != string(got[i]) {
			t.Errorf("point %d diverged under the shared pool", i)
		}
	}
}

// BenchmarkAblationRunnerScaling measures the replication runner's
// parallel speedup: the same 8-replication batch with 1 worker versus
// all cores.
func BenchmarkAblationRunnerScaling(b *testing.B) {
	base := DefaultScenario(50, Regular)
	base.Replications = 8
	base.Duration = 600 * sim.Second
	base.SnapshotEvery = 0
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			sc := base
			sc.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := Run(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
