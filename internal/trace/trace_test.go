package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"manetp2p/internal/sim"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(KindConn, 1, 2, "established")
	if tr.Events() != nil || tr.Lost() != 0 {
		t.Error("nil tracer leaked state")
	}
}

func TestEmitRecordsWithSimTime(t *testing.T) {
	s := sim.New(1)
	tr := New(s, 100)
	s.Schedule(5*sim.Second, func() { tr.Emit(KindQuery, 3, -1, "file %d", 7) })
	s.Run(sim.MaxTime)
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	e := evs[0]
	if e.At != 5*sim.Second || e.Node != 3 || e.Peer != -1 || e.What != "file 7" {
		t.Errorf("event = %+v", e)
	}
}

func TestCapacityDropsOldest(t *testing.T) {
	s := sim.New(1)
	tr := New(s, 10)
	for i := 0; i < 25; i++ {
		tr.Emit(KindConn, i, -1, "e")
	}
	if tr.Lost() == 0 {
		t.Error("no events reported lost")
	}
	evs := tr.Events()
	if len(evs) > 10 {
		t.Errorf("events = %d, want <= capacity 10", len(evs))
	}
	// The newest event must be retained.
	if evs[len(evs)-1].Node != 24 {
		t.Errorf("latest event node = %d, want 24", evs[len(evs)-1].Node)
	}
}

func TestEventTextAndJSON(t *testing.T) {
	s := sim.New(1)
	tr := New(s, 10)
	tr.Emit(KindState, 2, -1, "initial->master")
	tr.Emit(KindConn, 2, 5, "established")
	var jsonBuf bytes.Buffer
	if err := tr.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("json lines = %d, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindState || e.Node != 2 {
		t.Errorf("decoded event = %+v", e)
	}
}
