// Package trace provides structured event tracing for simulations: a
// bounded in-memory event log that components append to and tools
// render as JSON lines. Tracing is off by default (a nil
// *Tracer is safe to use and free), so instrumented code pays nothing
// unless a tool turns it on.
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
	// KindQuery marks query issuance and answers.
	KindQuery
	// KindRoute marks routing events (discovery, break).
	KindRoute
	// KindNode marks node lifecycle (join, leave, death).
	KindNode
	// KindWorkload marks workload-engine demand events (class assignment,
	// flash-crowd targeting).
	KindWorkload
	// KindPhase marks workload phase-timeline transitions.
	KindPhase
)

// Event is one traced occurrence.
type Event struct {
	At   sim.Time `json:"at"`
	Kind Kind     `json:"kind"`
	Node int      `json:"node"`
	Peer int      `json:"peer,omitempty"` // -1 when not applicable
	What string   `json:"what"`
}

// Tracer is a bounded append-only event log. A nil Tracer discards all
// events, so callers never need to guard their Emit calls. Not safe for
// concurrent use: one Tracer per Sim.
type Tracer struct {
	sim    *sim.Sim
	events []Event
	cap    int
	lost   uint64
}

// New creates a tracer bound to s keeping at most capacity events
// (older events are dropped once full; Lost counts them).
func New(s *sim.Sim, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{sim: s, cap: capacity}
}

// Emit records an event; nil tracers discard. peer may be -1.
func (t *Tracer) Emit(kind Kind, node, peer int, format string, args ...any) {
	if t == nil {
		return
	}
	if len(t.events) >= t.cap {
		// Drop the oldest half rather than one-at-a-time shifting.
		n := copy(t.events, t.events[t.cap/2:])
		t.lost += uint64(len(t.events) - n)
		t.events = t.events[:n]
	}
	t.events = append(t.events, Event{
		At:   t.sim.Now(),
		Kind: kind,
		Node: node,
		Peer: peer,
		What: fmt.Sprintf(format, args...),
	})
}

// Events returns the recorded events in order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Lost reports how many events were discarded to stay within capacity.
func (t *Tracer) Lost() uint64 {
	if t == nil {
		return 0
	}
	return t.lost
}

// WriteJSON renders events as JSON lines.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
