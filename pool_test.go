package manetp2p

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"manetp2p/internal/sim"
	"manetp2p/internal/stats"
	"manetp2p/internal/telemetry"
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

// The search section pools each file rank's summaries in two in-order
// passes over the request logs, and poolAll pools its parts in place:
// both are bit for bit stats.Summarize over the concatenated samples,
// over 1–33 replications, empty logs and parts, and ranks no request
// asked for.
func TestSearchPoolMatchesSummarize(t *testing.T) {
	var search section
	for _, s := range sections {
		if s.name == "search" {
			search = s
		}
	}
	same := func(a, b stats.Summary) bool {
		return a.N == b.N && math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
			math.Float64bits(a.StdDev) == math.Float64bits(b.StdDev) &&
			math.Float64bits(a.Min) == math.Float64bits(b.Min) && math.Float64bits(a.Max) == math.Float64bits(b.Max)
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		asked := 1 + rng.Intn(8) // ranks [asked, NumFiles) get no request
		sc := DefaultScenario(10, Regular)
		sc.Files.NumFiles = asked + 1 + rng.Intn(3)
		reps := make([]*repResult, 1+rng.Intn(33))
		dist := make([][]float64, sc.Files.NumFiles)
		adhoc := make([][]float64, sc.Files.NumFiles)
		answers := make([][]float64, sc.Files.NumFiles)
		var lifetimes []float64
		for i := range reps {
			rr := &repResult{}
			for n := rng.Intn(telemetry.StoreChunk + 20); n > 0; n-- {
				o := telemetry.Outcome{File: uint16(rng.Intn(asked)), Answers: uint32(rng.Intn(4))}
				if o.Answers > 0 {
					o.MinP2P, o.MinAdhoc = uint32(1+rng.Intn(6)), uint32(1+rng.Intn(12))
					dist[o.File] = append(dist[o.File], float64(o.MinP2P))
					adhoc[o.File] = append(adhoc[o.File], float64(o.MinAdhoc))
				}
				answers[o.File] = append(answers[o.File], float64(o.Answers))
				rr.Requests.Append(o)
			}
			for n := rng.Intn(40); n > 0; n-- {
				rr.Lifetimes = append(rr.Lifetimes, rng.ExpFloat64()*300)
			}
			lifetimes = append(lifetimes, rr.Lifetimes...)
			reps[i] = rr
		}

		res := &Result{}
		search.pool(sc, reps, res)
		if len(res.PerFile) != sc.Files.NumFiles {
			t.Fatalf("trial %d: %d file curves, want %d", trial, len(res.PerFile), sc.Files.NumFiles)
		}
		for f, fc := range res.PerFile {
			if fc.File != f || fc.Requests != len(answers[f]) ||
				!same(fc.Distance, stats.Summarize(dist[f])) || !same(fc.AdhocDist, stats.Summarize(adhoc[f])) ||
				!same(fc.Answers, stats.Summarize(answers[f])) {
				t.Fatalf("trial %d, rank %d: pooled %#v, want the summaries of %d requests", trial, f, fc, len(answers[f]))
			}
			if fc.Requests > 0 && fc.FoundRate != float64(len(dist[f]))/float64(len(answers[f])) {
				t.Fatalf("trial %d, rank %d: found rate %v, want %d of %d", trial, f, fc.FoundRate, len(dist[f]), len(answers[f]))
			}
		}
		if got, want := poolAll(reps, func(rr *repResult) []float64 { return rr.Lifetimes }), stats.Summarize(lifetimes); !same(got, want) {
			t.Fatalf("trial %d: poolAll = %#v, Summarize over the concatenation = %#v", trial, got, want)
		}
	}
}
