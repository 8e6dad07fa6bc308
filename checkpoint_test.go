package manetp2p

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
	"manetp2p/internal/telemetry"
	"manetp2p/internal/workload"
)

// ckptGolden gates the full 22-fixture fresh-process round-trip (about
// as expensive as the golden suite itself); ./check.sh checkpoint runs
// it. The cheap always-on variants below cover the same machinery.
var ckptGolden = flag.Bool("ckpt-golden", false,
	"run the full golden-fixture checkpoint/resume round-trip (./check.sh checkpoint)")

// ckptScenario is a busy but fast scenario: faults mid-run, health
// telemetry, snapshots, traffic buckets and churn all feed the Result,
// so a restore that loses any subsystem's state shows up.
func ckptScenario() Scenario {
	sc := DefaultScenario(30, Regular)
	sc.Name = "ckpt-roundtrip"
	sc.Duration = 240 * sim.Second
	sc.Replications = 2
	sc.Seed = 13
	sc.SnapshotEvery = 60 * sim.Second
	sc.TrafficBucket = 60 * sim.Second
	sc.HealthEvery = 10 * sim.Second
	sc.Churn = ChurnConfig{MeanUptime: 300 * sim.Second, MeanDowntime: 30 * sim.Second}
	sc.Faults = FaultPlan{Events: []FaultEvent{
		PartitionFault(60*sim.Second, 90*sim.Second, AxisX, 50),
	}}
	sc.Params.PeerCache = p2p.PeerCacheConfig{Enabled: true}
	return sc
}

// countCheckpointWrites counts every checkpoint file write the package
// makes until the test ends.
func countCheckpointWrites(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	writeCheckpoint = func(path string, data []byte) error {
		n.Add(1)
		return writeFileAtomic(path, data)
	}
	t.Cleanup(func() { writeCheckpoint = writeFileAtomic })
	return &n
}

// loadCkpt reads and validates the checkpoint at path.
func loadCkpt(t *testing.T, path string) (*ckptFile, Scenario) {
	t.Helper()
	f, sc, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return f, sc
}

// saveCkpt encodes f into a new file and returns its path.
func saveCkpt(t *testing.T, f *ckptFile) string {
	t.Helper()
	data, err := encodeCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "saved.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// killedAfter derives, from the finished checkpoint at path, the file a
// process killed after its first k replications completed leaves
// behind: those k records. It returns the new file's path.
func killedAfter(t *testing.T, path string, k int) string {
	t.Helper()
	f, sc := loadCkpt(t, path)
	if len(f.Reps) != sc.Replications {
		t.Fatalf("killedAfter: %s is not a finished checkpoint", path)
	}
	f.Reps = f.Reps[:k]
	return saveCkpt(t, f)
}

// finishedCheckpoint runs sc to completion with a checkpoint and
// returns the file's path.
func finishedCheckpoint(t *testing.T, sc Scenario) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := NewPool(0).Run(sc, Outputs{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	return path
}

// A checkpointed run must return exactly what the plain runner returns,
// and rewrite its file once per replication.
func TestCheckpointedRunMatchesRun(t *testing.T) {
	sc := ckptScenario()
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	writes := countCheckpointWrites(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := NewPool(0).Run(sc, Outputs{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, plain), resultJSON(t, ckpt)) {
		t.Error("checkpointed run's Result differs from the plain run's")
	}
	if got, want := writes.Load(), int64(sc.Replications); got != want {
		t.Errorf("checkpointed run of %d replications wrote the file %d times, want %d", sc.Replications, got, want)
	}
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Done || len(info.Completed) != sc.Replications {
		t.Errorf("final checkpoint state = done=%v completed=%v, want done, all reps", info.Done, info.Completed)
	}
}

// Satellite (ISSUE 8): resume a run killed mid-way through a fault
// scenario, in-process, and the full Result — Resilience explicitly
// included — must match the uninterrupted run byte-for-byte.
func TestCheckpointResumeUnderFaults(t *testing.T) {
	sc := ckptScenario()
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Resilience == nil {
		t.Fatal("precondition: fault scenario produced no resilience telemetry")
	}
	path := killedAfter(t, finishedCheckpoint(t, sc), 1)
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Done || len(info.Completed) != 1 {
		t.Fatalf("killed checkpoint state = done=%v completed=%v, want one replication, not done", info.Done, info.Completed)
	}
	resumed, err := NewPool(0).Run(info.Scenario, Outputs{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := resultJSON(t, plain), resultJSON(t, resumed)
	if !bytes.Equal(ra, rb) {
		t.Error("resumed Result differs from the uninterrupted run")
	}
	pa, _ := json.Marshal(plain.Resilience)
	pb, _ := json.Marshal(resumed.Resilience)
	if !bytes.Equal(pa, pb) {
		t.Errorf("Result.Resilience diverged across resume:\nuninterrupted: %s\nresumed:       %s", pa, pb)
	}
}

// Resuming a finished checkpoint re-runs nothing: every replication
// loads from its stored record, so the Result must match even if the
// file is the only thing left of the original process — its scenario
// read back by InspectCheckpoint, as p2psim -resume does.
func TestResumeCompletedCheckpoint(t *testing.T) {
	sc := ckptScenario()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	pool := NewPool(0)
	first, err := pool.Run(sc, Outputs{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := pool.Run(info.Scenario, Outputs{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, first), resultJSON(t, again)) {
		t.Error("resume of a completed checkpoint changed the Result")
	}
}

// A checkpoint is open-or-create: re-running the same command on the
// file an interrupted run left behind loads the stored replications
// (one file write per replication it still had to execute) instead of
// starting over, and a file holding a different
// scenario is refused and left exactly as it was.
func TestCheckpointContinuesExistingFile(t *testing.T) {
	sc := ckptScenario()
	sc.Replications = 3
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := killedAfter(t, finishedCheckpoint(t, sc), 2)
	pool := NewPool(0)
	for _, tc := range []struct {
		state  string
		writes int64 // replications still to execute
	}{{"killed after 2 of 3", 1}, {"finished", 0}} {
		writes := countCheckpointWrites(t)
		res, err := pool.Run(sc, Outputs{Checkpoint: path})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultJSON(t, plain), resultJSON(t, res)) {
			t.Errorf("%s: continued run's Result differs from the plain run's", tc.state)
		}
		if got := writes.Load(); got != tc.writes {
			t.Errorf("%s: continuing wrote the file %d times, want %d", tc.state, got, tc.writes)
		}
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := sc
	other.Seed++
	_, err = pool.Run(other, Outputs{Checkpoint: path})
	if err == nil || !strings.Contains(err.Error(), "different scenario") {
		t.Errorf("run over another scenario's checkpoint: err = %v, want a different-scenario error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("refused run modified the existing checkpoint")
	}
}

// The stored replication indices come from disk and are validated
// before any replication runs: each must lie in [0, replications) and
// follow the one before it.
func TestResumeValidatesCompletedList(t *testing.T) {
	sc := ckptScenario()
	finished := finishedCheckpoint(t, sc)
	for _, tc := range []struct {
		name    string
		indices []int
		wantErr string
	}{
		{"out of range", []int{0, 2}, "replication 2 is outside [0,2)"},
		{"negative", []int{-1}, "replication -1 is outside [0,2)"},
		{"duplicate", []int{0, 0}, "replication 0 is outside [0,2), listed twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, _ := loadCkpt(t, finished)
			for i, idx := range tc.indices {
				f.Reps[i].Index = idx
			}
			_, err := NewPool(0).Run(sc, Outputs{Checkpoint: saveCkpt(t, f)})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("resume err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// Satellite (ISSUE 8): a replication failing mid-grid must surface its
// error through Pool machinery — never deadlock it. The injected
// failure is an unwritable checkpoint path, which every worker hits
// when it stores its finished replication.
func TestPoolSurfacesReplicationErrors(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc := ckptScenario()
	sc.Replications = 4
	sc.Workers = 2
	pool := NewPool(2)
	_, err := pool.Run(sc, Outputs{
		Checkpoint: filepath.Join(blocker, "x.ckpt"), // blocker is a file: persist must fail
	})
	if err == nil {
		t.Fatal("run with an unwritable checkpoint path returned nil error")
	}
	// The pool must still be usable: all slots were released.
	sc2 := quickScenario(Regular, 15)
	sc2.Replications = 2
	if _, err := pool.Run(sc2, Outputs{}); err != nil {
		t.Fatalf("pool unusable after failed run: %v", err)
	}
}

// resumeInFreshProcess re-execs this test binary to run
// TestCheckpointResumeChild in a brand-new process — the real crash
// -recovery shape: nothing survives but the checkpoint file. It returns
// the goldenMarshal-rendered Result of the resumed run.
func resumeInFreshProcess(t *testing.T, ckptPath string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "resumed.json")
	cmd := exec.Command(exe, "-test.run", "^TestCheckpointResumeChild$", "-test.count", "1")
	cmd.Env = append(os.Environ(),
		"MANETP2P_CKPT_RESUME="+ckptPath,
		"MANETP2P_CKPT_OUT="+out,
	)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh-process resume failed: %v\n%s", err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("fresh-process resume wrote no report: %v", err)
	}
	return data
}

// TestCheckpointResumeChild is the fresh process's half of the
// round-trip tests: inert unless invoked via resumeInFreshProcess.
func TestCheckpointResumeChild(t *testing.T) {
	path := os.Getenv("MANETP2P_CKPT_RESUME")
	if path == "" {
		t.Skip("child half of the fresh-process resume tests")
	}
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewPool(0).Run(info.Scenario, Outputs{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv("MANETP2P_CKPT_OUT"), goldenMarshal(t, res), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Always-on fresh-process round-trip on the fast scenario: the file a
// run killed after its first replication leaves behind, resumed in a
// new process, compared against the uninterrupted in-process run.
func TestCheckpointResumeFreshProcess(t *testing.T) {
	sc := ckptScenario()
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	got := resumeInFreshProcess(t, killedAfter(t, finishedCheckpoint(t, sc), 1))
	want := goldenMarshal(t, plain)
	if !bytes.Equal(got, want) {
		t.Error("fresh-process resumed report differs from the uninterrupted run")
	}
}

// TestCheckpointGoldenFixtures is the acceptance bar: every committed
// golden fixture — 4 algorithm, 16 routing-matrix, 1 workload, 1
// download — is run with a checkpoint and resumed in a fresh process,
// and the resumed report must be byte-identical to the fixture on disk.
// The two-replication fixtures resume the file a run killed after its
// first replication leaves behind; the one-replication routing fixtures
// have no such file and load the finished one. Expensive; gated behind
// -ckpt-golden and run by ./check.sh checkpoint.
func TestCheckpointGoldenFixtures(t *testing.T) {
	if !*ckptGolden {
		t.Skip("enable with -ckpt-golden (./check.sh checkpoint)")
	}
	if sim.Salted() {
		t.Skip("stream salt set: the fixtures pin the unsalted streams")
	}
	type fixture struct {
		name string
		sc   Scenario
		path string
	}
	var fixtures []fixture
	for _, alg := range Algorithms() {
		fixtures = append(fixtures, fixture{
			name: strings.ToLower(alg.String()),
			sc:   goldenScenario(alg),
			path: filepath.Join("testdata", "golden", strings.ToLower(alg.String())+".json"),
		})
	}
	for _, sub := range []struct {
		name string
		kind RoutingKind
	}{{"aodv", RoutingAODV}, {"dsr", RoutingDSR}, {"flood", RoutingFlood}, {"dsdv", RoutingDSDV}} {
		for _, alg := range Algorithms() {
			fixtures = append(fixtures, fixture{
				name: "routing_" + sub.name + "_" + strings.ToLower(alg.String()),
				sc:   goldenRoutingScenario(alg, sub.kind),
				path: filepath.Join("testdata", "golden", "routing_"+sub.name+"_"+strings.ToLower(alg.String())+".json"),
			})
		}
	}
	fixtures = append(fixtures, fixture{
		name: "workload",
		sc:   goldenWorkloadScenario(),
		path: filepath.Join("testdata", "golden", "workload.json"),
	})
	fixtures = append(fixtures, fixture{
		name: "download",
		sc:   goldenDownloadScenario(),
		path: filepath.Join("testdata", "golden", "download.json"),
	})

	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(fx.path)
			if err != nil {
				t.Fatalf("missing fixture: %v", err)
			}
			ckptPath := finishedCheckpoint(t, fx.sc)
			if fx.sc.Replications > 1 {
				ckptPath = killedAfter(t, ckptPath, 1)
			}
			if dir := os.Getenv("MANETP2P_CKPT_ARTIFACT"); dir != "" && fx.name == "workload" {
				// Preserve the partial workload checkpoint for the CI
				// artifact before the resume completes it.
				data, err := os.ReadFile(ckptPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "workload.ckpt"), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got := resumeInFreshProcess(t, ckptPath)
			if !bytes.Equal(got, want) {
				t.Errorf("fresh-process resumed report differs from fixture %s", fx.path)
			}
		})
	}
}

// sampleCkpt is a small, valid checkpoint: a 2-replication scenario and
// one stored record, built without running anything.
func sampleCkpt(t testing.TB) *ckptFile {
	t.Helper()
	sc := DefaultScenario(10, Regular)
	sc.Replications = 2
	scJSON, err := MarshalJSONScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := repResult{RxFrames: []float64{3, 1}, Deaths: 2, Workload: &workload.Telemetry{TTFR: []float64{0.5}}}
	rec.Workload.Offered = 7
	for i := 0; i < telemetry.StoreChunk+5; i++ { // a request log of two chunks
		rec.Requests.Append(sampleOutcome(i))
	}
	return &ckptFile{Generator: sim.Generator, Layout: ckptLayout, Scenario: scJSON,
		Reps: []ckptRep{{Index: 1, Record: rec}}}
}

// sampleOutcome is the i-th request of sampleCkpt's log.
func sampleOutcome(i int) telemetry.Outcome {
	return telemetry.Outcome{Node: uint16(i % 10), File: uint16(i % 20), Answers: uint32(i % 3), MinP2P: uint32(i % 4), MinAdhoc: uint32(i % 7)}
}

// ckptBody is the gob body of f's encoding, without magic, version and
// checksum.
func ckptBody(t testing.TB, f *ckptFile) []byte {
	t.Helper()
	data, err := encodeCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	return data[len(ckptMagic)+1 : len(data)-crc32.Size]
}

// stamped frames body as this binary writes a file: magic, version,
// body, checksum.
func stamped(body []byte) []byte {
	data := append([]byte(ckptMagic+string(rune(ckptVersion))), body...)
	return binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
}

// A checkpoint reads back as what was written.
func TestCheckpointEncodingRoundTrip(t *testing.T) {
	data, err := encodeCheckpoint(sampleCkpt(t))
	if err != nil {
		t.Fatal(err)
	}
	got, sc, err := parseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Replications != 2 || len(got.Reps) != 1 || got.Reps[0].Index != 1 ||
		got.Reps[0].Record.Deaths != 2 || got.Reps[0].Record.Workload.Offered != 7 {
		t.Errorf("read back %+v", got)
	}
	requests := got.Reps[0].Record.Requests.Slice()
	if len(requests) != telemetry.StoreChunk+5 {
		t.Fatalf("read back %d requests, want %d", len(requests), telemetry.StoreChunk+5)
	}
	for i, o := range requests {
		if o != sampleOutcome(i) {
			t.Fatalf("request %d read back as %+v, want %+v", i, o, sampleOutcome(i))
		}
	}
}

// Encoding the same checkpoint twice, or encoding again what was read
// back, gives the same bytes: one file has one encoding.
func TestCheckpointEncodingIsByteStable(t *testing.T) {
	data, err := encodeCheckpoint(sampleCkpt(t))
	if err != nil {
		t.Fatal(err)
	}
	twice, err := encodeCheckpoint(sampleCkpt(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(twice, data) {
		t.Error("encoding the same checkpoint twice gave different bytes")
	}
	got, _, err := parseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := encodeCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("re-encoding a read checkpoint changed its bytes")
	}
}

// Every damage to a file is refused before anything in it is trusted,
// and a file of another format is named by its version — including the
// two-layer format ('1') the committed testdata/format1.ckpt was written
// in. A file of another record layout is named by its layout before its
// records are decoded: testdata/layout1.ckpt holds its request outcomes
// as the slice of telemetry.Request that layout 1 stored. A request log
// whose chunks do not hold its count is refused too.
func TestReadCheckpointRejectsCorruption(t *testing.T) {
	valid, err := encodeCheckpoint(sampleCkpt(t))
	if err != nil {
		t.Fatal(err)
	}
	format1, err := os.ReadFile(filepath.Join("testdata", "format1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	layout1, err := os.ReadFile(filepath.Join("testdata", "layout1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	mutated := func(mutate func([]byte) []byte) []byte { return mutate(bytes.Clone(valid)) }
	body := ckptBody(t, sampleCkpt(t))
	shortLog := sampleCkpt(t)
	shortLog.Reps[0].Record.Requests.N += telemetry.StoreChunk
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"another magic", mutated(func(b []byte) []byte { b[0] = 'X'; return b }), "not a checkpoint file"},
		{"empty", nil, "not a checkpoint file"},
		{"another version", mutated(func(b []byte) []byte { b[len(ckptMagic)] = '3'; return b }), "format version '3', this binary reads version '2'"},
		{"format 1", format1, "format version '1', this binary reads version '2'"},
		{"truncated", mutated(func(b []byte) []byte { return b[:len(b)-3] }), "checksum mismatch"},
		{"flipped byte", mutated(func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }), "checksum mismatch"},
		{"trailing bytes", mutated(func(b []byte) []byte { return append(b, 0xEE) }), "checksum mismatch"},
		{"trailing bytes under the checksum", stamped(append(bytes.Clone(body), 0xEE)), "1 trailing bytes"},
		{"truncated under the checksum", stamped(body[:len(body)-3]), "decoding"},
		{"layout 1", layout1, "record layout 1, this binary's is 2"},
		{"request log longer than its chunks", stamped(ckptBody(t, shortLog)), "replication 1: request log: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parseCheckpoint(tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// A checkpoint records the layout of the records it holds, and a file
// of another layout is refused on resume: gob would decode its records
// into this binary's repResult without error, zeroing every field that
// moved.
func TestCheckpointRefusesAnotherLayout(t *testing.T) {
	sc := ckptScenario()
	f, _ := loadCkpt(t, killedAfter(t, finishedCheckpoint(t, sc), 1))
	f.Layout = ckptLayout + 1
	_, err := NewPool(0).Run(sc, Outputs{Checkpoint: saveCkpt(t, f)})
	want := fmt.Sprintf("record layout %d, this binary's is %d", ckptLayout+1, ckptLayout)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resume of another layout: err = %v, want mention of %q", err, want)
	}
}

// A checkpoint names the generator its replications were drawn from,
// and a file that names none or another is refused: the same seeds
// under another generator are another sample, and pooling the two would
// match neither.
func TestCheckpointNamesItsGenerator(t *testing.T) {
	for _, tc := range []struct {
		name, generator string
		wantErr         string // "" = the file is accepted
	}{
		{"this binary's", sim.Generator, ""},
		{"absent", "", "names no random-stream generator"},
		{"another", "go1-math-rand", `random-stream generator "go1-math-rand", this binary draws "` + sim.Generator + `"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := sampleCkpt(t)
			f.Generator = tc.generator
			_, err := InspectCheckpoint(saveCkpt(t, f))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("file refused: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzReadCheckpoint feeds the reader arbitrary bodies under a valid
// magic, version and checksum, so the decoder and the checks behind it
// see them, not just the checksum. Whatever the body, the reader
// returns an error or a file whose indices it vouched for and whose
// re-encoding reads back to the same bytes.
func FuzzReadCheckpoint(f *testing.F) {
	body := ckptBody(f, sampleCkpt(f))
	variant := func(edit func(*ckptFile)) []byte {
		c := sampleCkpt(f)
		edit(c)
		return ckptBody(f, c)
	}
	for _, seed := range [][]byte{
		body,
		nil,
		body[:len(body)/2],
		append(bytes.Clone(body), 0xEE),
		func() []byte { b := bytes.Clone(body); b[len(b)/2] ^= 0xff; return b }(),
		variant(func(c *ckptFile) { c.Generator = "go1-math-rand" }),
		variant(func(c *ckptFile) { c.Layout++ }),
		variant(func(c *ckptFile) { c.Reps[0].Index = 2 }),
		variant(func(c *ckptFile) { c.Reps = append(c.Reps, c.Reps[0]) }),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		file, sc, err := parseCheckpoint(stamped(body))
		if err != nil {
			return
		}
		for i, rp := range file.Reps {
			if rp.Index < 0 || rp.Index >= sc.Replications || i > 0 && rp.Index <= file.Reps[i-1].Index {
				t.Fatalf("accepted indices %v of %d replications", file.Reps, sc.Replications)
			}
		}
		once, err := encodeCheckpoint(file)
		if err != nil {
			t.Fatalf("accepted file does not encode: %v", err)
		}
		again, _, err := parseCheckpoint(once)
		if err != nil {
			t.Fatalf("re-encoded file refused: %v", err)
		}
		twice, err := encodeCheckpoint(again)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding does not read back to the same bytes (err %v)", err)
		}
	})
}

// TestSectionNames: a section's name keys its points in the stream and
// its line in the checkpoint layout, so it must be present and unique.
func TestSectionNames(t *testing.T) {
	seen := map[string]bool{}
	for i, s := range sections {
		if s.name == "" {
			t.Errorf("section %d has no name", i)
		}
		if seen[s.name] {
			t.Errorf("section name %q appears twice", s.name)
		}
		seen[s.name] = true
	}
}

// checkpointLayout describes what a checkpoint's records depend on: the
// section list in order, then repResult's type tree as gob matches it —
// every exported field's name and shape, recursively. A struct inside
// itself (a linked chunk) is written as "^" and its name.
func checkpointLayout() string {
	var b strings.Builder
	for _, s := range sections {
		fmt.Fprintf(&b, "section %s\n", s.name)
	}
	b.WriteString("repResult ")
	describeType(&b, reflect.TypeOf(repResult{}), "", map[reflect.Type]bool{})
	return b.String()
}

func describeType(b *strings.Builder, t reflect.Type, indent string, open map[reflect.Type]bool) {
	switch t.Kind() {
	case reflect.Pointer:
		b.WriteString("*")
		describeType(b, t.Elem(), indent, open)
	case reflect.Slice:
		b.WriteString("[]")
		describeType(b, t.Elem(), indent, open)
	case reflect.Array:
		fmt.Fprintf(b, "[%d]", t.Len())
		describeType(b, t.Elem(), indent, open)
	case reflect.Map:
		b.WriteString("map[")
		describeType(b, t.Key(), indent, open)
		b.WriteString("]")
		describeType(b, t.Elem(), indent, open)
	case reflect.Struct:
		if open[t] {
			name, _, _ := strings.Cut(t.Name(), "[")
			b.WriteString("^" + name)
			return
		}
		open[t] = true
		defer delete(open, t)
		b.WriteString("{\n")
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				b.WriteString(indent + "  " + f.Name + " ")
				describeType(b, f.Type, indent+"  ", open)
				b.WriteString("\n")
			}
		}
		b.WriteString(indent + "}")
	default:
		b.WriteString(t.Kind().String())
	}
}

// TestCheckpointLayout pins ckptLayout to the layout it numbers. A
// renamed, added or removed record field, at any depth, or a changed
// section list fails here: bump ckptLayout and re-pin both, so files
// written under the old layout are refused instead of decoding into the
// wrong fields.
func TestCheckpointLayout(t *testing.T) {
	const pinnedLayout = 2
	const pinned = `section invariants
section servent
section radio
section route
section overlay
section energy
section sessions
section resilience
section workload
section search
repResult {
  Requests {
    Head *{
      Items [255]{
        Node uint16
        File uint16
        Answers uint32
        MinP2P uint32
        MinAdhoc uint32
      }
      Next *^Chunk
    }
    N int
  }
  Totals [7][]float64
  RxFrames []float64
  TxFrames []float64
  Clust []float64
  PathLen []float64
  Largest []float64
  MeanDeg []float64
  Alive []float64
  DegSeries []float64
  ConnRate []float64
  QueryRate []float64
  Deaths float64
  Energy []float64
  Lifetimes []float64
  Health []{
    At int64
    LargestComp float64
    Links int
    Received [7]uint64
  }
  Routing []{
    CtrlOrig uint64
    CtrlRelayed uint64
    BcastOrig uint64
    BcastRelayed uint64
    DataSent uint64
    DataForwarded uint64
    DataDropped uint64
    Delivered uint64
    Discoveries uint64
    DiscoverFailed uint64
    SendFailed uint64
    DupHits uint64
  }
  Checked bool
  ViolTotal int
  Violations []{
    At int64
    Layer string
    Rule string
    Node int
    Peer int
    Detail string
  }
  Workload *{
    Counters {
      Offered uint64
      Retries uint64
      Issued uint64
      Resolved uint64
      Expired uint64
      Aborted uint64
      InFlight uint64
      Pending uint64
      BoundsViol uint64
    }
    TTFR []float64
    Completion []float64
    Classes []{
      Name string
      Nodes int
      Issued uint64
    }
  }
  Churnit float64
}`
	if got := checkpointLayout(); ckptLayout != pinnedLayout || got != pinned {
		t.Fatalf("ckptLayout = %d for the layout\n%s\npinned: %d for\n%s", ckptLayout, got, pinnedLayout, pinned)
	}
}
