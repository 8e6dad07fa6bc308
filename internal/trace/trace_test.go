package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"manetp2p/internal/sim"
)

// decode reads the JSON lines a Tracer wrote.
func decode(t *testing.T, data []byte) []Event {
	t.Helper()
	var evs []Event
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e)
	}
	return evs
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(KindConn, 1, 2, "established") // must not panic
}

func TestEmitRecordsWithSimTime(t *testing.T) {
	s := sim.New(1)
	var buf bytes.Buffer
	tr := New(s, &buf)
	s.Schedule(5*sim.Second, func() { tr.Emit(KindQuery, 3, -1, "file %d", Int(7)) })
	s.Run(sim.MaxTime)
	evs := decode(t, buf.Bytes())
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	e := evs[0]
	if e.At != 5*sim.Second || e.Node != 3 || e.Peer != -1 || e.What != "file 7" {
		t.Errorf("event = %+v", e)
	}
}

// Each event is on the writer when Emit returns, one JSON line apiece.
func TestEventTextAndJSON(t *testing.T) {
	s := sim.New(1)
	var buf bytes.Buffer
	tr := New(s, &buf)
	tr.Emit(KindState, 2, -1, "initial->master")
	if lines := strings.Count(buf.String(), "\n"); lines != 1 {
		t.Fatalf("after one Emit the writer holds %d lines, want 1", lines)
	}
	tr.Emit(KindConn, 2, 5, "established")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
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

// failAfter accepts n writes and fails every later one.
type failAfter struct {
	n     int
	calls int
}

var errFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.n {
		return 0, errFull
	}
	return len(p), nil
}

// The first write error sticks and stops the stream.
func TestWriteErrorLatches(t *testing.T) {
	w := &failAfter{n: 1}
	tr := New(sim.New(1), w)
	for i := 0; i < 5; i++ {
		tr.Emit(KindNode, i, -1, "churn down")
	}
	if !errors.Is(tr.Err(), errFull) {
		t.Errorf("Err() = %v, want %v", tr.Err(), errFull)
	}
	if w.calls != 2 {
		t.Errorf("writer called %d times, want 2: Emit must stop at the first error", w.calls)
	}
}

// A role change is written "from->to", so grep finds what README says.
func TestTextIsNotHTMLEscaped(t *testing.T) {
	var buf bytes.Buffer
	New(sim.New(1), &buf).Emit(KindState, 2, -1, "%s->%s", Str("initial"), Str("master"))
	if !strings.Contains(buf.String(), `"what":"initial->master"`) {
		t.Errorf("trace line %q does not carry initial->master verbatim", buf.String())
	}
}

// Node 0 is a real peer: every event carries its peer, 0 and -1 included.
func TestEveryEventCarriesItsPeer(t *testing.T) {
	var buf bytes.Buffer
	tr := New(sim.New(1), &buf)
	for _, peer := range []int{0, -1, 7} {
		tr.Emit(KindConn, 3, peer, "established")
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["peer"]; !ok {
			t.Errorf("event %d has no peer: %s", i, line)
		}
	}
	if evs := decode(t, buf.Bytes()); len(evs) != 3 || evs[0].Peer != 0 || evs[1].Peer != -1 || evs[2].Peer != 7 {
		t.Errorf("decoded peers of %+v, want 0, -1, 7", evs)
	}
}

// The numbers are the written format: a trace keeps meaning what it did.
func TestKindNumbersAreStable(t *testing.T) {
	for kind, want := range map[Kind]int{
		KindConn: 0, KindState: 1, KindQuery: 2, KindNode: 4, KindWorkload: 5, KindPhase: 6,
	} {
		if int(kind) != want {
			t.Errorf("kind %d, want %d", kind, want)
		}
	}
}
