package manetp2p

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"manetp2p/internal/sim"
)

// This file is replication-granular checkpointing: a run given
// Outputs.Checkpoint persists every finished replication to that file,
// and a later run of the same scenario on the same file — in this
// process or a new one — loads those replications instead of executing
// them and runs only the rest, producing a report byte-identical to the
// uninterrupted run (DESIGN.md §11). A replication that was in flight
// when the process died runs again from its seed. To resume a file
// without knowing its scenario, read it with InspectCheckpoint first.
//
// A checkpoint file is ckptMagic, one format-version byte, the gob
// encoding of one ckptFile, and the little-endian CRC-32 (IEEE) of
// everything before it. Each fact is stored once: the replication total
// is the scenario's, the completed list is the stored indices, and the
// run is done when every replication is stored.

const (
	ckptMagic   = "MP2PCKP"
	ckptVersion = '2' // '1': a JSON header over named, CRC-guarded sections
)

// ckptLayout numbers the record layout a checkpoint holds: the section
// list and repResult's whole type tree, which gob would otherwise
// decode across a change without error, zeroing what it cannot match.
// TestCheckpointLayout pins it to a description of both, so a change to
// either fails that test until this number is bumped. Layout 1 held
// the request outcomes as a slice of 48-byte telemetry.Request; layout
// 2 holds the Collector's chunked log of 16-byte telemetry.Outcome.
const ckptLayout = 2

// ckptFile is everything a checkpoint stores.
type ckptFile struct {
	Generator string // sim.Generator of the writing binary
	Layout    int    // ckptLayout of the writing binary
	Scenario  []byte // canonical scenario JSON
	Reps      []ckptRep
}

// ckptRep is one finished replication; a file lists them by ascending
// Index, each once.
type ckptRep struct {
	Index  int
	Record repResult
}

// writeCheckpoint is writeFileAtomic; a variable only so a test can
// count the writes of a run.
var writeCheckpoint = writeFileAtomic

// encodeCheckpoint renders f in the file format.
func encodeCheckpoint(f *ckptFile) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	buf.WriteByte(ckptVersion)
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return nil, fmt.Errorf("manetp2p: encoding checkpoint: %w", err)
	}
	return binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.ChecksumIEEE(buf.Bytes())), nil
}

// parseCheckpoint decodes and validates a checkpoint file's bytes:
// magic and version first, so a file of another format is named as
// such, then the checksum, then the generator and record layout, then
// one decode that must consume the body exactly, then what the body
// says against this binary.
func parseCheckpoint(data []byte) (*ckptFile, Scenario, error) {
	head := len(ckptMagic) + 1
	if len(data) < head || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, Scenario{}, errors.New("not a checkpoint file")
	}
	if v := data[len(ckptMagic)]; v != ckptVersion {
		return nil, Scenario{}, fmt.Errorf("checkpoint format version %q, this binary reads version %q", v, ckptVersion)
	}
	end := len(data) - crc32.Size
	if end < head || crc32.ChecksumIEEE(data[:end]) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, Scenario{}, errors.New("checksum mismatch: the file is truncated or corrupt")
	}
	// The generator and the layout first: the records of another
	// layout would not decode into this binary's, or decode wrongly.
	var stamp struct {
		Generator string
		Layout    int
	}
	if err := gob.NewDecoder(bytes.NewReader(data[head:end])).Decode(&stamp); err != nil {
		return nil, Scenario{}, fmt.Errorf("decoding: %w", err)
	}
	switch stamp.Generator {
	case sim.Generator:
	case "":
		return nil, Scenario{}, fmt.Errorf("names no random-stream generator: its replications cannot be pooled with this binary's, which draws %s", sim.Generator)
	default:
		return nil, Scenario{}, fmt.Errorf("random-stream generator %q, this binary draws %q; its replications cannot be pooled with this binary's", stamp.Generator, sim.Generator)
	}
	if stamp.Layout != ckptLayout {
		return nil, Scenario{}, fmt.Errorf("record layout %d, this binary's is %d: its replications would decode into the wrong fields", stamp.Layout, ckptLayout)
	}
	body := bytes.NewReader(data[head:end])
	f := new(ckptFile)
	if err := gob.NewDecoder(body).Decode(f); err != nil {
		return nil, Scenario{}, fmt.Errorf("decoding: %w", err)
	}
	if body.Len() != 0 {
		return nil, Scenario{}, fmt.Errorf("%d trailing bytes after the record", body.Len())
	}
	sc, err := UnmarshalJSONScenario(f.Scenario)
	if err != nil {
		return nil, Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	next := 0 // the least index the next entry may hold
	for _, rp := range f.Reps {
		if rp.Index < next || rp.Index >= sc.Replications {
			return nil, Scenario{}, fmt.Errorf("replication %d is outside [0,%d), listed twice or out of order", rp.Index, sc.Replications)
		}
		if err := rp.Record.Requests.Check(); err != nil {
			return nil, Scenario{}, fmt.Errorf("replication %d: request log: %w", rp.Index, err)
		}
		next = rp.Index + 1
	}
	return f, sc, nil
}

// readCheckpoint reads and validates the checkpoint at path.
func readCheckpoint(path string) (*ckptFile, Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Scenario{}, fmt.Errorf("manetp2p: %w", err)
	}
	f, sc, err := parseCheckpoint(data)
	if err != nil {
		return nil, Scenario{}, fmt.Errorf("manetp2p: checkpoint %s: %w", path, err)
	}
	return f, sc, nil
}

// writeFileAtomic writes data to path through a temporary file in the
// same directory, synced and then renamed over path, so an interrupted
// writer leaves either the old file or the new one, never a torn one.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("manetp2p: %w", err)
	}
	_, werr := tmp.Write(data)
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("manetp2p: writing checkpoint %s: %w", path, werr)
	}
	return nil
}

// ckptState is the progress of one checkpointed run, shared by its
// replication workers.
type ckptState struct {
	path     string
	scenario []byte // canonical scenario JSON

	mu   sync.Mutex
	reps []*repResult // by index; nil until finished or loaded
}

// store records a finished replication and rewrites the file. st.mu
// also orders the writes: a later snapshot never loses to an earlier.
func (st *ckptState) store(rep int, rr *repResult) error {
	rec := *rr // a copy: the worker goes on to set rr.err
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reps[rep] = &rec
	f := &ckptFile{Generator: sim.Generator, Layout: ckptLayout, Scenario: st.scenario}
	for i, rr := range st.reps {
		if rr != nil {
			f.Reps = append(f.Reps, ckptRep{Index: i, Record: *rr})
		}
	}
	data, err := encodeCheckpoint(f)
	if err != nil {
		return err
	}
	return writeCheckpoint(st.path, data)
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
	st := &ckptState{path: path, scenario: want, reps: make([]*repResult, sc.Replications)}
	f, have, err := readCheckpoint(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return st, nil
	case err != nil:
		return nil, err
	}
	// Compared canonically: the file's JSON is re-rendered by this binary.
	if got, err := MarshalJSONScenario(have); err != nil || !bytes.Equal(want, got) {
		return nil, fmt.Errorf("manetp2p: checkpoint %s was written for a different scenario; delete it or use another path", path)
	}
	for i := range f.Reps {
		st.reps[f.Reps[i].Index] = &f.Reps[i].Record
	}
	return st, nil
}

// CheckpointInfo summarizes a checkpoint file.
type CheckpointInfo struct {
	Scenario  Scenario
	Completed []int // replication indices finished and stored, ascending
	Done      bool  // every one of Scenario.Replications is stored
}

// InspectCheckpoint reads and verifies the checkpoint at path and
// reports its scenario and progress.
func InspectCheckpoint(path string) (*CheckpointInfo, error) {
	f, sc, err := readCheckpoint(path)
	if err != nil {
		return nil, err
	}
	info := &CheckpointInfo{Scenario: sc, Completed: make([]int, len(f.Reps))}
	for i, rp := range f.Reps {
		info.Completed[i] = rp.Index
	}
	info.Done = len(info.Completed) == sc.Replications
	return info, nil
}
