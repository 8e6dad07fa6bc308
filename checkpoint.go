package manetp2p

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"sync"

	"manetp2p/internal/checkpoint"
	"manetp2p/internal/sim"
)

// This file wires internal/checkpoint into the runner: a run given
// Outputs.Checkpoint persists every finished replication to that file,
// and a later run of the same scenario on the same file — in this
// process or a new one — loads those replications instead of executing
// them and runs only the rest, producing a report byte-identical to the
// uninterrupted run (DESIGN.md §11). A replication that was in flight
// when the process died runs again from its seed. To resume a file
// without knowing its scenario, read it with InspectCheckpoint first.

// ckptHeader is the checkpoint file's JSON header — self-describing
// enough for tooling without decoding any section. It is decoded
// leniently: a "cursors" array of in-flight replications, which early
// headers carried, is ignored (they run from their seed).
// Generator names the random streams the replications were drawn from
// (sim.Generator): the same seeds under another generator are another
// sample, so resume refuses a file that names none or another.
type ckptHeader struct {
	Kind      string          `json:"kind"`
	Generator string          `json:"generator"`
	Scenario  json.RawMessage `json:"scenario"`
	Total     int             `json:"replications"`
	Completed []int           `json:"completed"`
	Done      bool            `json:"done"`

	sc Scenario // Scenario, decoded and validated by readCkptHeader
}

const ckptKind = "manetp2p-run"

// telemetrySectionName is the checkpoint section holding the telemetry
// plane's manifest (section names in list order).
const telemetrySectionName = "telemetry/manifest"

func sectionName(rep int) string { return "rep/" + strconv.Itoa(rep) }

// writeCheckpoint is checkpoint.Write; a variable only so a test can
// count the writes of a run.
var writeCheckpoint = checkpoint.Write

// ckptState is the progress of one checkpointed run, shared by its
// replication workers.
type ckptState struct {
	path   string
	hdr    ckptHeader         // Completed and Done are filled in per write
	loaded map[int]*repResult // replications read from the file; read-only

	mu      sync.Mutex
	records map[int][]byte // gob-encoded finished replications
}

// store records a finished replication and rewrites the file.
func (st *ckptState) store(rep int, rr *repResult) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rr); err != nil {
		return fmt.Errorf("manetp2p: encoding replication %d: %w", rep, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.records[rep] = buf.Bytes()
	return st.persist(false)
}

// finish marks the run complete and rewrites the file.
func (st *ckptState) finish() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.persist(true)
}

// persist writes the current progress to the checkpoint file. The
// caller holds st.mu, which also orders the writes: a later snapshot is
// never overwritten by an earlier one.
func (st *ckptState) persist(done bool) error {
	hdr := st.hdr
	hdr.Done, hdr.Completed = done, make([]int, 0, len(st.records))
	f := &checkpoint.File{Sections: make(map[string][]byte, len(st.records)+1)}
	// The telemetry plane's shape travels with the run: resume refuses a
	// checkpoint whose section list differs from this binary's.
	f.Sections[telemetrySectionName] = sectionsManifest()
	for rep := 0; rep < hdr.Total; rep++ { // ascending: byte-stable headers
		if data, ok := st.records[rep]; ok {
			hdr.Completed = append(hdr.Completed, rep)
			f.Sections[sectionName(rep)] = data
		}
	}
	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("manetp2p: encoding checkpoint header: %w", err)
	}
	f.Header = hb
	return writeCheckpoint(st.path, f)
}

// readCkptState loads the checkpoint at path: the scenario, and every
// completed replication decoded from its section.
func readCkptState(path string) (*ckptState, error) {
	f, hdr, err := readCkptHeader(path)
	if err != nil {
		return nil, err
	}
	manifest, ok := f.Sections[telemetrySectionName]
	if !ok {
		return nil, fmt.Errorf("manetp2p: checkpoint %s: no %q section — written by a binary without the telemetry plane", path, telemetrySectionName)
	}
	if err := checkSectionsManifest(manifest); err != nil {
		return nil, fmt.Errorf("manetp2p: checkpoint %s: %w — the telemetry plane changed between the writing and resuming binaries", path, err)
	}
	st := &ckptState{
		path: path, hdr: *hdr,
		loaded:  make(map[int]*repResult, len(hdr.Completed)),
		records: make(map[int][]byte, len(hdr.Completed)),
	}
	for _, rep := range hdr.Completed {
		data, ok := f.Sections[sectionName(rep)]
		if !ok {
			return nil, fmt.Errorf("manetp2p: checkpoint %s: header lists replication %d complete but section %q is missing", path, rep, sectionName(rep))
		}
		rr := new(repResult)
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(rr); err != nil {
			return nil, fmt.Errorf("manetp2p: checkpoint %s: decoding replication %d: %w", path, rep, err)
		}
		st.loaded[rep] = rr
		st.records[rep] = data
	}
	return st, nil
}

// openCheckpoint opens the checkpoint at path for a run of sc, or
// starts an empty one if there is no file yet. The scenario is
// validated before the file is read, and a file holding another
// scenario is refused without being written.
func openCheckpoint(path string, sc Scenario) (*ckptState, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	want, err := MarshalJSONScenario(sc)
	if err != nil {
		return nil, err
	}
	st, err := readCkptState(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return &ckptState{
			path:    path,
			hdr:     ckptHeader{Kind: ckptKind, Generator: sim.Generator, Scenario: want, Total: sc.Replications, sc: sc},
			records: make(map[int][]byte, sc.Replications),
		}, nil
	case err != nil:
		return nil, err
	}
	have, err := MarshalJSONScenario(st.hdr.sc)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(want, have) {
		return nil, fmt.Errorf("manetp2p: checkpoint %s was written for a different scenario; delete it or use another path", path)
	}
	return st, nil
}

// CheckpointInfo summarizes a checkpoint file's header.
type CheckpointInfo struct {
	Scenario  Scenario
	Done      bool
	Total     int   // replications in the scenario
	Completed []int // replication indices finished and stored
}

// InspectCheckpoint verifies the checkpoint at path and reports its
// header, decoding no replication.
func InspectCheckpoint(path string) (*CheckpointInfo, error) {
	_, hdr, err := readCkptHeader(path)
	if err != nil {
		return nil, err
	}
	return &CheckpointInfo{Scenario: hdr.sc, Done: hdr.Done, Total: hdr.Total, Completed: hdr.Completed}, nil
}

// readCkptHeader reads and verifies the checkpoint at path and decodes
// and validates its header; everything in it comes from disk.
func readCkptHeader(path string) (*checkpoint.File, *ckptHeader, error) {
	f, err := checkpoint.Read(path)
	if err != nil {
		return nil, nil, err
	}
	hdr := new(ckptHeader)
	if err := json.Unmarshal(f.Header, hdr); err != nil {
		return nil, nil, fmt.Errorf("manetp2p: checkpoint %s: header: %w", path, err)
	}
	if hdr.Kind != ckptKind {
		return nil, nil, fmt.Errorf("manetp2p: checkpoint %s: kind %q, want %q", path, hdr.Kind, ckptKind)
	}
	switch hdr.Generator {
	case sim.Generator:
	case "":
		return nil, nil, fmt.Errorf("manetp2p: checkpoint %s names no random-stream generator: it was written before streams were %s, and its replications cannot be pooled with this binary's", path, sim.Generator)
	default:
		return nil, nil, fmt.Errorf("manetp2p: checkpoint %s: random-stream generator %q, this binary draws %q; its replications cannot be pooled with this binary's", path, hdr.Generator, sim.Generator)
	}
	if hdr.sc, err = UnmarshalJSONScenario(hdr.Scenario); err != nil {
		return nil, nil, fmt.Errorf("manetp2p: checkpoint %s: scenario: %w", path, err)
	}
	if hdr.Total != hdr.sc.Replications {
		return nil, nil, fmt.Errorf("manetp2p: checkpoint %s: header says %d replications, scenario says %d", path, hdr.Total, hdr.sc.Replications)
	}
	seen := make(map[int]bool, len(hdr.Completed))
	for _, rep := range hdr.Completed {
		if rep < 0 || rep >= hdr.Total || seen[rep] {
			return nil, nil, fmt.Errorf("manetp2p: checkpoint %s: header lists replication %d complete, which is outside [0,%d) or listed twice", path, rep, hdr.Total)
		}
		seen[rep] = true
	}
	return f, hdr, nil
}
