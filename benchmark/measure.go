package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"manetp2p"
)

// execution is what one call of manetp2p.Run on one replication gave.
type execution struct {
	wall    float64 // seconds inside manetp2p.Run: build + run + collect + pool
	mallocs uint64
	bytes   uint64
	digest  [sha256.Size]byte // SHA-256 of json.Marshal(Result)
	// Pooled sums of the Result, for pass B's "hooks changed nothing" check.
	txFrames, rxFrames, delivered uint64
	violations                    int // invariant checker findings (0 when it is not armed)
	err                           error
}

// pooledSum recovers the integer sum behind a pooled Summary.
func pooledSum(mean float64, n int) uint64 { return uint64(math.Round(mean * float64(n))) }

// execute runs one replication untraced. The collection and the digest
// stay outside the timer. A panic inside Run is recovered and reported
// as that replication's failure.
func execute(sc manetp2p.Scenario) (ex execution) {
	defer func() {
		if p := recover(); p != nil {
			ex.err = fmt.Errorf("panic in Run: %v", p)
		}
	}()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := manetp2p.Run(sc)
	ex.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	ex.mallocs = m1.Mallocs - m0.Mallocs
	ex.bytes = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		ex.err = err
		return ex
	}
	if res.Routing == nil || res.Routing.Delivered.Mean == 0 {
		ex.err = errors.New("nothing was delivered")
		return ex
	}
	data, err := json.Marshal(res)
	if err != nil {
		ex.err = fmt.Errorf("marshal result: %w", err)
		return ex
	}
	ex.digest = sha256.Sum256(data)
	ex.txFrames = pooledSum(res.TxFrames.Mean, res.TxFrames.N)
	ex.rxFrames = pooledSum(res.RxFrames.Mean, res.RxFrames.N)
	ex.delivered = pooledSum(res.Routing.Delivered.Mean, res.Routing.Delivered.N)
	if res.Invariants != nil {
		ex.violations = res.Invariants.Violations
	}
	return ex
}

// run accumulates one workload's executions: the untraced timings, the
// digests every later execution of the same replication is held to, and
// the op counts.
type run struct {
	w    *workload
	reps []rep

	wall  [][]float64 // [round][rep]
	first []execution // round 1: allocation counts, digests, pooled sums

	ops    int
	failed int
	errs   []string
}

// fail records one failed replication.
func (r *run) fail(rp rep, what string, err error) {
	r.failed++
	msg := fmt.Sprintf("%s %s seed %d (%s): %v", r.w.name, r.w.cells[rp.cell].name, rp.seed, what, err)
	r.errs = append(r.errs, msg)
	fmt.Fprintln(os.Stderr, "FAILED", msg)
}

// verify counts one execution of replication i and holds it to the
// checks: no error, and the digest of every earlier execution of the
// same inputs. A speed-up must leave every simulated statistic
// identical; this is where that is enforced without committed values.
func (r *run) verify(i int, what string, ex execution) {
	r.ops++
	switch {
	case ex.err != nil:
		r.fail(r.reps[i], what, ex.err)
	case i < len(r.first) && r.first[i].err == nil && ex.digest != r.first[i].digest:
		r.fail(r.reps[i], what, fmt.Errorf("result digest differs from the first execution of the same inputs"))
	}
}

// timeReps runs replications [from, len(reps)) once, untraced, as one
// more round (rounds are appended in order; round 1 may grow pass by
// pass).
func (r *run) timeReps(round, from int) {
	for len(r.wall) <= round {
		r.wall = append(r.wall, nil)
	}
	for i := from; i < len(r.reps); i++ {
		ex := execute(r.w.scenario(r.reps[i]))
		r.verify(i, fmt.Sprintf("round %d", round+1), ex)
		r.wall[round] = append(r.wall[round], ex.wall)
		if round == 0 {
			r.first = append(r.first, ex)
		}
	}
}

// fillSeconds adds passes to round 1 until the budget is spent. A pass
// is started when at least half of it is expected to fit, so the
// measured time averages the budget instead of always exceeding it.
func (r *run) fillSeconds(seed int64, seconds float64) {
	start := time.Now()
	for p := 0; ; p++ {
		from := len(r.reps)
		r.reps = append(r.reps, r.w.pass(seed, p)...)
		r.timeReps(0, from)
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(p+1)/2 > seconds {
			return
		}
	}
}

// bestWall is replication i's minimum wall time over the rounds run:
// interference on a shared box only ever adds time.
func (r *run) bestWall(i int) float64 {
	best := math.Inf(1)
	for _, round := range r.wall {
		if i < len(round) && round[i] < best {
			best = round[i]
		}
	}
	return best
}

// simHours is the simulated time of the replications.
func (r *run) simHours() float64 {
	h := 0.0
	for _, rp := range r.reps {
		h += r.w.cells[rp.cell].sc.Duration.Seconds() / 3600
	}
	return h
}

// roundSpread is max round total ÷ min round total − 1: the noise
// reading printed beside the timing (0 with a single round).
func (r *run) roundSpread() float64 {
	lo, hi := math.Inf(1), 0.0
	for _, round := range r.wall {
		if len(round) != len(r.reps) {
			continue
		}
		t := 0.0
		for _, w := range round {
			t += w
		}
		lo, hi = math.Min(lo, t), math.Max(hi, t)
	}
	if hi == 0 {
		return 0
	}
	return hi/lo - 1
}

// digest folds the round-1 digests in replication order into the
// workload digest printed for diffing a parent against a change.
func (r *run) digest() string {
	h := sha256.New()
	for _, ex := range r.first {
		h.Write(ex.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// endToEnd computes the untraced metrics (setup_s is measured apart).
func (r *run) endToEnd() map[string]float64 {
	wall, mallocs, bytes := 0.0, 0.0, 0.0
	for i := range r.reps {
		wall += r.bestWall(i)
		mallocs += float64(r.first[i].mallocs)
		bytes += float64(r.first[i].bytes)
	}
	n := float64(len(r.reps))
	return map[string]float64{
		"wall_s_per_sim_hour": wall / r.simHours(),
		"allocs_per_rep":      mallocs / n,
		"alloc_mb_per_rep":    bytes / n / 1e6,
	}
}

// setupRepeats is how many times set-up is measured. It is tens of
// milliseconds on the 50-node workloads, so single readings scatter by
// 20 %; the median of fifteen moved by about 7 % between runs.
const setupRepeats = 15

// measureSetup times what a user pays once before a workload's first
// replication: building and validating the scenarios, and one warm-up
// replication of the first cell at 1/12 of its duration, which grows
// the heap and faults in the pages.
func measureSetup(name string, shrink manetp2p.Duration) (float64, error) {
	times := make([]float64, setupRepeats)
	for i := range times {
		runtime.GC()
		t0 := time.Now()
		w, err := findWorkload(buildWorkloads(shrink), name)
		if err != nil {
			return 0, err
		}
		for _, c := range w.cells {
			if err := c.sc.Validate(); err != nil {
				return 0, fmt.Errorf("%s %s: %w", name, c.name, err)
			}
		}
		sc := w.scenario(rep{cell: 0, seed: 1})
		sc.Duration /= 12
		if _, err := manetp2p.Run(sc); err != nil {
			return 0, fmt.Errorf("%s warm-up: %w", name, err)
		}
		times[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

// findWorkload picks a workload by name.
func findWorkload(ws []workload, name string) (*workload, error) {
	for i := range ws {
		if ws[i].name == name {
			return &ws[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
}

// goldenFixture is the determinism fixture the correctness gate replays.
// It lives outside the benchmark's directory on purpose: a change that
// alters behaviour deliberately regenerates it under the repository's
// -update-golden rule, and the gate follows.
const goldenFixture = "testdata/golden/regular.json"

// goldenGate replays the scenario embedded in the fixture and compares
// the rendered Result byte for byte, the way the repository's own
// golden test does (Routing stripped, indented, trailing newline).
func goldenGate(root string) error {
	want, err := os.ReadFile(filepath.Join(root, goldenFixture))
	if err != nil {
		return fmt.Errorf("golden gate: %w", err)
	}
	var fixture struct{ Scenario json.RawMessage }
	if err := json.Unmarshal(want, &fixture); err != nil {
		return fmt.Errorf("golden gate: parse %s: %w", goldenFixture, err)
	}
	sc, err := manetp2p.UnmarshalJSONScenario(fixture.Scenario)
	if err != nil {
		return fmt.Errorf("golden gate: %w", err)
	}
	res, err := manetp2p.Run(sc)
	if err != nil {
		return fmt.Errorf("golden gate: %w", err)
	}
	clone := *res
	clone.Routing = nil
	got, err := json.MarshalIndent(&clone, "", "  ")
	if err != nil {
		return fmt.Errorf("golden gate: %w", err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		return fmt.Errorf("golden gate: result drifted from %s: %d bytes rendered, %d in the fixture, first difference at byte %d",
			goldenFixture, len(got), len(want), firstDiff(got, want))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
