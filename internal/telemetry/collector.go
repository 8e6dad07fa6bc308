// Package telemetry holds what a replication records into and what a
// run streams out of:
//
//   - the Collector (this file): the paper's measurement quantities —
//     per-node received-message counts by class (connect, ping, query —
//     Figures 7–12), per-request outcomes (minimum distance to the file
//     and number of answers — Figures 5–6), optional time-bucketed
//     traffic series, connection lifetimes and the periodic resilience
//     health samples;
//   - Point and Sink (sink.go): the streamed time-series sample and its
//     JSON Lines writer.
//
// The sections that harvest a Collector, pool replications and render
// reports live in the root package (telemetry_sections.go).
package telemetry

import (
	"fmt"

	"manetp2p/internal/sim"
)

// Class partitions p2p-layer messages the way the paper's figures do.
type Class int

const (
	// Connect covers every message of the establishment phase: discovery
	// broadcasts (discover/solicit/capture) and handshake unicasts
	// (offer/accept/confirm/reject, enslave handshake, replies).
	Connect Class = iota
	// Ping is a keepalive probe.
	Ping
	// Pong is a keepalive answer.
	Pong
	// Query is a file search message.
	Query
	// QueryHit is an answer to a query.
	QueryHit
	// Bye is a best-effort connection teardown notice.
	Bye
	// Transfer covers the optional download extension's fetch/chunk
	// messages (not part of the paper's counted classes).
	Transfer
)

// classNames names each class as reports do, indexed by Class.
var classNames = [...]string{Connect: "connect", Ping: "ping", Pong: "pong", Query: "query", QueryHit: "queryhit", Bye: "bye", Transfer: "transfer"}

// String returns the class name used in reports.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// NumClasses is the number of message classes tracked.
const NumClasses = len(classNames)

// Request records the outcome of one file search: how many answers
// arrived within the paper's 30 s collection window and the minimum
// distance (in p2p overlay hops and in ad-hoc hops) among them.
type Request struct {
	Node     int  // requesting servent
	File     int  // file rank, 0 = most popular
	Answers  int  // query hits received in the window
	MinP2P   int  // min p2p hops among answers; 0 if none
	MinAdhoc int  // min ad-hoc hops among answers; 0 if none
	Found    bool // at least one answer arrived
}

// Outcome is a Request as the Collector stores it: 16 bytes, not 48
// (TestOutcomeIs16Bytes). Found is Answers > 0. Node and File fit 16
// bits because Scenario.Validate caps NumNodes at 1<<16 and p2p caps
// NumFiles at 1<<16. The counts take 32 bits: a holder answers a query
// at most once, and a hop is one transmission, so no run that finishes
// counts 2^32 of either.
type Outcome struct {
	Node     uint16
	File     uint16
	Answers  uint32
	MinP2P   uint32
	MinAdhoc uint32
}

// Request expands the record.
func (o Outcome) Request() Request {
	return Request{Node: int(o.Node), File: int(o.File), Answers: int(o.Answers),
		MinP2P: int(o.MinP2P), MinAdhoc: int(o.MinAdhoc), Found: o.Answers > 0}
}

// HealthSample is one point of the resilience telemetry: a periodic
// low-overhead reading of overlay health from which recovery metrics
// (time-to-reheal, residual disconnection, message cost of recovery)
// are derived after the run.
type HealthSample struct {
	At          sim.Time
	LargestComp float64            // largest-component fraction of the membership
	Links       int                // overlay link count
	Received    [NumClasses]uint64 // cumulative network-wide received counts
}

// Collector accumulates one replication's measurements: one flat block
// for the per-node per-class receive counts (the event hot path — Recv
// is zero-allocation when bucketing is off, and allocation-amortized
// when on). It is not safe for concurrent use: one Collector per Sim.
type Collector struct {
	recv     []uint64 // [node*NumClasses + class]
	requests Store[Outcome]

	// Optional time bucketing.
	clock   func() sim.Time
	bucketW sim.Time
	buckets [][]uint64 // [class][bucket]

	lifetimes Store[float64]      // overlay connection lifetimes, seconds
	health    Store[HealthSample] // periodic resilience telemetry
}

// NewCollector sizes the collector for n nodes.
func NewCollector(n int) *Collector {
	return &Collector{recv: make([]uint64, n*NumClasses)}
}

// SetClock enables time-bucketed totals: every Recv is also counted
// into a bucket of the given width according to the clock. Call before
// the simulation starts.
func (c *Collector) SetClock(clock func() sim.Time, bucket sim.Time) {
	if clock == nil || bucket <= 0 {
		// Unreachable from input: manet.Build calls SetClock only when TrafficBucket > 0.
		panic("telemetry: SetClock requires a clock and a positive bucket width")
	}
	c.clock = clock
	c.bucketW = bucket
	c.buckets = make([][]uint64, NumClasses)
}

// Recv counts one received message of the given class at node.
func (c *Collector) Recv(node int, class Class) {
	c.recv[node*NumClasses+int(class)]++
	if c.clock != nil {
		b := int(c.clock() / c.bucketW)
		row := c.buckets[class]
		for len(row) <= b {
			row = append(row, 0)
		}
		row[b]++
		c.buckets[class] = row
	}
}

// Series returns the bucketed totals for a class (nil when bucketing is
// off): element i counts messages received network-wide during
// [i·bucket, (i+1)·bucket).
func (c *Collector) Series(class Class) []uint64 {
	if c.buckets == nil {
		return nil
	}
	return c.buckets[class]
}

// Received returns the per-class count for one node.
func (c *Collector) Received(node int, class Class) uint64 {
	return c.recv[node*NumClasses+int(class)]
}

// TotalReceived sums the class count over all nodes — the cumulative
// totals the health sampler snapshots.
func (c *Collector) TotalReceived(class Class) uint64 {
	var t uint64
	for i := int(class); i < len(c.recv); i += NumClasses {
		t += c.recv[i]
	}
	return t
}

// RecordHealth appends one resilience telemetry sample.
func (c *Collector) RecordHealth(h HealthSample) { c.health.Append(h) }

// Health returns the recorded telemetry samples in time order, in a
// slice of their own.
func (c *Collector) Health() []HealthSample { return c.health.Slice() }

// EachHealth calls fn on sample i and its successors, in time order,
// without copying them.
func (c *Collector) EachHealth(from int, fn func(i int, h *HealthSample)) { c.health.Each(from, fn) }

// RecordLifetime stores one closed connection's lifetime in seconds —
// the churn the (re)configuration algorithms exist to manage.
func (c *Collector) RecordLifetime(seconds float64) { c.lifetimes.Append(seconds) }

// Lifetimes returns all recorded connection lifetimes (seconds), in a
// slice of their own.
func (c *Collector) Lifetimes() []float64 { return c.lifetimes.Slice() }

// Record stores a completed request outcome.
func (c *Collector) Record(r Request) {
	o := Outcome{Node: uint16(r.Node), File: uint16(r.File), Answers: uint32(r.Answers),
		MinP2P: uint32(r.MinP2P), MinAdhoc: uint32(r.MinAdhoc)}
	if o.Request() != r {
		// Unreachable from input: see Outcome for each field's bound, and
		// the servent sets Found as Answers > 0.
		panic(fmt.Sprintf("telemetry: request %+v does not fit its record", r))
	}
	c.requests.Append(o)
}

// Outcomes returns the request log. It shares the records, which the
// Collector never changes once recorded.
func (c *Collector) Outcomes() Store[Outcome] { return c.requests }

// Requests returns all recorded request outcomes, expanded into a slice
// of their own.
func (c *Collector) Requests() []Request {
	out := make([]Request, 0, c.requests.N)
	c.requests.Each(0, func(_ int, o *Outcome) { out = append(out, o.Request()) })
	return out
}

// NumNodes reports the node capacity of the collector.
func (c *Collector) NumNodes() int { return len(c.recv) / NumClasses }
