// Package trace streams structured simulation events: each event a
// component emits is written as one JSON line when it happens. A nil
// *Tracer discards events, so call sites need no guard. Emit's format
// arguments are Arg values, not interfaces: a call on a nil Tracer boxes
// nothing and allocates nothing.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"manetp2p/internal/sim"
)

// Kind classifies trace events.
type Kind int

// Event kinds emitted by the simulation layers.
const (
	// KindConn marks overlay connection lifecycle (established/closed).
	KindConn Kind = iota
	// KindState marks hybrid role transitions, one "from->to" per change.
	KindState
	// KindQuery marks query issue and close, download start, abort, done.
	KindQuery
	_ // unused, so the kinds below keep the numbers traces carry
	// KindNode marks node lifecycle: churn and fault down/up, battery death.
	KindNode
	// KindWorkload marks the workload engine's session-class assignment.
	KindWorkload
	// KindPhase marks workload phase-timeline transitions.
	KindPhase
)

// Event is one traced occurrence.
type Event struct {
	At   sim.Time `json:"at"`
	Kind Kind     `json:"kind"`
	Node int      `json:"node"`
	Peer int      `json:"peer"` // -1 when not applicable
	What string   `json:"what"`
}

// Tracer writes each event to its writer as one JSON line when it is
// emitted. A nil Tracer discards all events, so callers never need to
// guard their Emit calls. Not safe for concurrent use: one Tracer per
// Sim.
type Tracer struct {
	sim *sim.Sim
	enc *json.Encoder
	err error
}

// New creates a tracer bound to s that streams its events to w. Text is
// written unescaped, so a role change reads "from->to".
func New(s *sim.Sim, w io.Writer) *Tracer {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return &Tracer{sim: s, enc: enc}
}

// Arg is one argument of Emit's format, held by value; only a live
// Tracer turns it into the interface fmt takes.
type Arg struct {
	kind byte // 'd' int, 't' bool, 'g' float, 's' string
	n    int64
	f    float64
	s    string
}

// Int, Bool, Float and Str make Emit's arguments; each formats as the
// value it wraps would.
func Int[T ~int | ~int32 | ~uint32](v T) Arg { return Arg{kind: 'd', n: int64(v)} }

func Bool(v bool) Arg {
	a := Arg{kind: 't'}
	if v {
		a.n = 1
	}
	return a
}

func Float(v float64) Arg { return Arg{kind: 'g', f: v} }

func Str(v string) Arg { return Arg{kind: 's', s: v} }

func (a Arg) value() any {
	switch a.kind {
	case 't':
		return a.n != 0
	case 'g':
		return a.f
	case 's':
		return a.s
	}
	return a.n
}

// Emit writes an event; nil tracers discard. peer may be -1. Nothing is
// written after the first write error, which Err reports.
func (t *Tracer) Emit(kind Kind, node, peer int, format string, args ...Arg) {
	if t == nil || t.err != nil {
		return
	}
	vals := make([]any, len(args))
	for i, a := range args {
		vals[i] = a.value()
	}
	t.err = t.enc.Encode(Event{
		At:   t.sim.Now(),
		Kind: kind,
		Node: node,
		Peer: peer,
		What: fmt.Sprintf(format, vals...),
	})
}

// Err returns the first error writing an event, or nil.
func (t *Tracer) Err() error { return t.err }
