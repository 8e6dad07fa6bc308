package manetp2p

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"manetp2p/internal/checkpoint"
	"manetp2p/internal/p2p"
	"manetp2p/internal/sim"
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

// countCheckpointWrites counts every checkpoint.Write the package makes
// until the test ends.
func countCheckpointWrites(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	writeCheckpoint = func(path string, f *checkpoint.File) error {
		n.Add(1)
		return checkpoint.Write(path, f)
	}
	t.Cleanup(func() { writeCheckpoint = checkpoint.Write })
	return &n
}

// killedAfter derives, from the finished checkpoint at path, the file a
// process killed after its first k replications completed leaves
// behind: those k records, done=false. It returns the new file's path.
func killedAfter(t *testing.T, path string, k int) string {
	t.Helper()
	f, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := decodeHeaderMap(t, f.Header)
	total := int(hdr["replications"].(float64))
	if len(hdr["completed"].([]any)) != total || hdr["done"] != true {
		t.Fatalf("killedAfter: %s is not a finished checkpoint", path)
	}
	completed := make([]int, k)
	for rep := 0; rep < total; rep++ {
		if rep < k {
			completed[rep] = rep
		} else {
			delete(f.Sections, sectionName(rep))
		}
	}
	hdr["completed"], hdr["done"] = completed, false
	f.Header = encodeHeaderMap(t, hdr)
	partial := filepath.Join(t.TempDir(), "killed.ckpt")
	if err := checkpoint.Write(partial, f); err != nil {
		t.Fatal(err)
	}
	return partial
}

func decodeHeaderMap(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var hdr map[string]any
	if err := json.Unmarshal(raw, &hdr); err != nil {
		t.Fatal(err)
	}
	return hdr
}

func encodeHeaderMap(t *testing.T, hdr map[string]any) []byte {
	t.Helper()
	raw, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// finishedCheckpoint runs sc to completion with a checkpoint and
// returns the file's path.
func finishedCheckpoint(t *testing.T, sc Scenario) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := NewPool(0).RunCheckpointed(sc, CheckpointConfig{Path: path}); err != nil {
		t.Fatal(err)
	}
	return path
}

// A checkpointed run must return exactly what the plain runner returns,
// and rewrite its file once per replication plus once to mark it done.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	sc := ckptScenario()
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	writes := countCheckpointWrites(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := NewPool(0).RunCheckpointed(sc, CheckpointConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, plain), resultJSON(t, ckpt)) {
		t.Error("checkpointed run's Result differs from the plain run's")
	}
	if got, want := writes.Load(), int64(sc.Replications+1); got != want {
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
	resumed, err := NewPool(0).ResumeCheckpoint(path, CheckpointConfig{})
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
// file is the only thing left of the original process.
func TestResumeCompletedCheckpoint(t *testing.T) {
	sc := ckptScenario()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	pool := NewPool(0)
	first, err := pool.RunCheckpointed(sc, CheckpointConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	again, err := pool.ResumeCheckpoint(path, CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, first), resultJSON(t, again)) {
		t.Error("resume of a completed checkpoint changed the Result")
	}
}

// RunCheckpointed is open-or-create: re-running the same command on the
// file an interrupted run left behind loads the stored replications
// (one file write per replication it still had to execute, plus the
// final one) instead of starting over, and a file holding a different
// scenario is refused and left exactly as it was.
func TestRunCheckpointedContinuesExistingFile(t *testing.T) {
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
		writes int64 // replications still to execute + the final write
	}{{"killed after 2 of 3", 2}, {"finished", 1}} {
		writes := countCheckpointWrites(t)
		res, err := pool.RunCheckpointed(sc, CheckpointConfig{Path: path})
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
	_, err = pool.RunCheckpointed(other, CheckpointConfig{Path: path})
	if err == nil || !strings.Contains(err.Error(), "different scenario") {
		t.Errorf("RunCheckpointed over another scenario's file: err = %v, want a different-scenario error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("refused RunCheckpointed modified the existing checkpoint")
	}
}

// The header's completed list comes from disk and is validated before
// any replication runs; a PR-8-era header (in-flight cursors alongside
// the completed list) still resumes, its cursors ignored.
func TestResumeValidatesCompletedList(t *testing.T) {
	sc := ckptScenario()
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	finished := finishedCheckpoint(t, sc)
	for _, tc := range []struct {
		name    string
		from    int // replications the source file completed
		mutate  func(hdr map[string]any, f *checkpoint.File)
		wantErr string // "" = must resume to the plain run's Result
	}{
		{"out of range", 1, func(hdr map[string]any, _ *checkpoint.File) { hdr["completed"] = []int{0, 2} }, "replication 2 complete, which is outside [0,2)"},
		{"negative", 1, func(hdr map[string]any, _ *checkpoint.File) { hdr["completed"] = []int{-1} }, "replication -1 complete, which is outside"},
		{"duplicate", 1, func(hdr map[string]any, _ *checkpoint.File) { hdr["completed"] = []int{0, 0} }, "replication 0 complete, which is outside [0,2) or listed twice"},
		{"missing section", 2, func(_ map[string]any, f *checkpoint.File) { delete(f.Sections, sectionName(1)) }, `section "rep/1" is missing`},
		{"PR-8 cursors", 1, func(hdr map[string]any, _ *checkpoint.File) {
			hdr["cursors"] = []map[string]any{{"rep": 1, "at": 120000000, "fired": 4242, "digest": "deadbeefdeadbeef"}}
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := killedAfter(t, finished, tc.from)
			f, err := checkpoint.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			hdr := decodeHeaderMap(t, f.Header)
			tc.mutate(hdr, f)
			f.Header = encodeHeaderMap(t, hdr)
			if err := checkpoint.Write(path, f); err != nil {
				t.Fatal(err)
			}
			res, err := NewPool(0).ResumeCheckpoint(path, CheckpointConfig{})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("resume err = %v, want mention of %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resultJSON(t, plain), resultJSON(t, res)) {
				t.Error("resumed Result differs from the uninterrupted run")
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
	_, err := pool.RunCheckpointed(sc, CheckpointConfig{
		Path: filepath.Join(blocker, "x.ckpt"), // blocker is a file: persist must fail
	})
	if err == nil {
		t.Fatal("RunCheckpointed with unwritable path returned nil error")
	}
	// The pool must still be usable: all slots were released.
	sc2 := quickScenario(Regular, 15)
	sc2.Replications = 2
	if _, err := pool.Run(sc2); err != nil {
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
	res, err := NewPool(0).ResumeCheckpoint(path, CheckpointConfig{})
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

// TestCheckpointTelemetryManifest pins the telemetry plane's
// checkpoint contract: every persisted checkpoint carries the section
// list's manifest, resuming against a drifted manifest (a section
// renamed between the writing and resuming binaries) is refused, and a
// checkpoint stripped of the manifest — what a binary without the
// telemetry plane would write — is refused too.
func TestCheckpointTelemetryManifest(t *testing.T) {
	path := killedAfter(t, finishedCheckpoint(t, ckptScenario()), 1)
	pool := NewPool(0)

	f, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	manifest, ok := f.Sections[telemetrySectionName]
	if !ok {
		t.Fatalf("checkpoint has no %q section", telemetrySectionName)
	}
	if !bytes.Equal(manifest, sectionsManifest()) {
		t.Fatalf("persisted manifest %s differs from this binary's %s",
			manifest, sectionsManifest())
	}

	// Drift: rename one section as a binary with a different telemetry
	// plane would have. The re-encoded file is internally consistent
	// (valid CRC), so only the manifest check can catch it.
	drifted := bytes.Replace(manifest, []byte(`"servent"`), []byte(`"servant"`), 1)
	if bytes.Equal(drifted, manifest) {
		t.Fatal("test manifest does not mention the servent section")
	}
	f.Sections[telemetrySectionName] = drifted
	if err := checkpoint.Write(path, f); err != nil {
		t.Fatal(err)
	}
	_, err = pool.ResumeCheckpoint(path, CheckpointConfig{})
	if err == nil || !strings.Contains(err.Error(), "telemetry plane changed") {
		t.Errorf("resume with drifted manifest: err = %v, want telemetry-drift error", err)
	}

	// Absence: a checkpoint written by a binary without the telemetry
	// plane at all.
	delete(f.Sections, telemetrySectionName)
	if err := checkpoint.Write(path, f); err != nil {
		t.Fatal(err)
	}
	_, err = pool.ResumeCheckpoint(path, CheckpointConfig{})
	if err == nil || !strings.Contains(err.Error(), "without the telemetry plane") {
		t.Errorf("resume without manifest: err = %v, want missing-manifest error", err)
	}
}

// TestSectionNames: a section's name keys its points in the stream and
// its slot in the manifest, so it must be present and unique.
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

// TestSectionManifest pins the manifest to the bytes the PR-13…19
// binaries wrote into their checkpoints — so those files still resume —
// and the manifest check to refusing any other section list.
func TestSectionManifest(t *testing.T) {
	const written = `{"version":1,"sections":["invariants","servent","radio","route","overlay","energy","sessions","resilience","workload","search"]}`
	if got := string(sectionsManifest()); got != written {
		t.Fatalf("manifest = %s\nwant       %s", got, written)
	}
	if err := checkSectionsManifest([]byte(written)); err != nil {
		t.Fatalf("own manifest refused: %v", err)
	}
	for name, drifted := range map[string]string{
		"reordered":     strings.Replace(written, `"radio","route"`, `"route","radio"`, 1),
		"shortened":     strings.Replace(written, `,"search"`, "", 1),
		"wrong version": strings.Replace(written, `"version":1`, `"version":2`, 1),
		"not JSON":      "not json",
	} {
		if drifted == written {
			t.Fatalf("%s: the test's edit did not apply", name)
		}
		if err := checkSectionsManifest([]byte(drifted)); err == nil {
			t.Errorf("%s manifest accepted: %s", name, drifted)
		}
	}
}
