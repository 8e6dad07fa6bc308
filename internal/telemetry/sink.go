package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// Point is one time-series sample emitted to a sink. Field order is
// the JSONL column order.
type Point struct {
	Rep     int     `json:"rep"`
	T       float64 `json:"t"`
	Section string  `json:"section"`
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
}

// Sink receives time-series points as replications complete. Sinks are
// driven from a single goroutine after all replications have finished,
// in ascending replication order with sections in list order, so output
// is deterministic regardless of worker scheduling.
type Sink interface {
	Emit(Point)
	// Close flushes the sink and reports the first write error
	// encountered, if any.
	Close() error
}

// JSONLSink streams points as JSON Lines. Writes are buffered; errors
// are latched and reported by Close.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer // closed by Close when the target is a Closer we own
	err error
}

// NewJSONLSink wraps w in a buffered JSONL sink. If w is an io.Closer
// it is closed by Close.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit writes one point as a JSON line. The fixed-schema encoding is
// done with Fprintf rather than encoding/json to keep the per-point
// cost flat (section/name are interned labels, never user input
// needing escaping).
func (s *JSONLSink) Emit(p Point) {
	if s.err != nil {
		return
	}
	_, err := fmt.Fprintf(s.w, `{"rep":%d,"t":%g,"section":%q,"name":%q,"value":%g}`+"\n",
		p.Rep, p.T, p.Section, p.Name, p.Value)
	if err != nil {
		s.err = err
	}
}

// Close flushes buffered points, closes the underlying writer when
// owned, and returns the first error seen.
func (s *JSONLSink) Close() error {
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); s.err == nil {
			s.err = err
		}
	}
	return s.err
}
