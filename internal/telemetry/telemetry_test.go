package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"manetp2p/internal/sim"
)

// The record hot path must not allocate: Recv sits inside the per-event
// code of the simulator.
func TestRecordPathZeroAlloc(t *testing.T) {
	col := NewCollector(8)
	allocs := testing.AllocsPerRun(1000, func() {
		col.Recv(3, Query)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %v/op, want 0", allocs)
	}
}

func TestCollectorAbsorbedBehavior(t *testing.T) {
	c := NewCollector(3)
	c.Recv(0, Connect)
	c.Recv(0, Connect)
	c.Recv(2, Query)
	if c.Received(0, Connect) != 2 || c.Received(2, Query) != 1 || c.Received(1, Ping) != 0 {
		t.Fatal("per-node counts wrong")
	}
	if c.TotalReceived(Connect) != 2 || c.TotalReceived(Query) != 1 {
		t.Fatal("totals wrong")
	}
	if c.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	c.RecordLifetime(12.5)
	if lt := c.Lifetimes(); len(lt) != 1 || lt[0] != 12.5 {
		t.Fatalf("lifetimes = %v", lt)
	}
	c.Record(Request{Node: 1, File: 0, Answers: 2, Found: true})
	if rq := c.Requests(); len(rq) != 1 || rq[0].Answers != 2 {
		t.Fatalf("requests = %v", rq)
	}
	c.RecordHealth(HealthSample{At: 10, LargestComp: 1, Links: 4})
	if h := c.Health(); len(h) != 1 || h[0].Links != 4 {
		t.Fatalf("health = %v", h)
	}
}

func TestCollectorBucketedSeries(t *testing.T) {
	var now sim.Time
	c := NewCollector(2)
	if c.Series(Query) != nil {
		t.Fatal("series should be nil before SetClock")
	}
	c.SetClock(func() sim.Time { return now }, 10)
	now = 3
	c.Recv(0, Query)
	now = 14
	c.Recv(1, Query)
	c.Recv(1, Query)
	now = 25
	c.Recv(0, Ping)
	q := c.Series(Query)
	if len(q) != 2 || q[0] != 1 || q[1] != 2 {
		t.Fatalf("query series = %v, want [1 2]", q)
	}
	p := c.Series(Ping)
	if len(p) != 3 || p[2] != 1 {
		t.Fatalf("ping series = %v, want [0 0 1]", p)
	}
}

func TestSafeRatioTable(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{0, 0, 0},
		{5, 0, 0},
		{-3, 0, 0},
		{math.Inf(1), 0, 0},
		{6, 3, 2},
		{1, 4, 0.25},
		{-6, 3, -2},
		{0, 7, 0},
	}
	for _, tc := range cases {
		if got := SafeRatio(tc.a, tc.b); got != tc.want {
			t.Errorf("SafeRatio(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Point{Rep: 0, T: 10, Section: "radio", Name: "rx", Value: 42})
	s.Emit(Point{Rep: 1, T: 0.5, Section: "workload", Name: "offered", Value: 1e6})
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var p Point
	if err := json.Unmarshal([]byte(lines[0]), &p); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if p != (Point{Rep: 0, T: 10, Section: "radio", Name: "rx", Value: 42}) {
		t.Fatalf("round-trip = %+v", p)
	}
	if err := json.Unmarshal([]byte(lines[1]), &p); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if p.Value != 1e6 {
		t.Fatalf("big value round-trip = %+v", p)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("disk full")
}

func TestJSONLSinkLatchesError(t *testing.T) {
	s := NewJSONLSink(&failWriter{})
	for i := 0; i < 100_000; i++ { // enough to overflow the bufio buffer
		s.Emit(Point{Rep: i, Section: "x", Name: "y"})
	}
	if err := s.Close(); err == nil {
		t.Fatal("write error not surfaced by Close")
	}
}
