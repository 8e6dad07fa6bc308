package manetp2p

import (
	"io"

	"manetp2p/internal/telemetry"
)

// The streaming metrics sink: in addition to the pooled in-memory
// Result, a run can emit every telemetry section's raw per-replication
// time series as it completes. Streaming is deterministic — points are
// emitted after all replications finish, in ascending replication order
// with sections in list order — so two runs of the same scenario
// produce byte-identical streams regardless of worker scheduling.

// MetricsPoint is one streamed time-series sample.
type MetricsPoint = telemetry.Point

// MetricsSink receives streamed samples; see telemetry.Sink.
type MetricsSink = telemetry.Sink

// NewJSONLSink returns a sink that streams points to w as JSON Lines
// (one object per line: rep, t, section, name, value). The caller owns
// the sink and must Close it to flush; if w is an io.Closer, Close
// closes it too.
func NewJSONLSink(w io.Writer) MetricsSink { return telemetry.NewJSONLSink(w) }

// RunWithMetrics executes the scenario like Run and additionally
// streams every telemetry section's per-replication time series to
// sink. The sink is not closed; the Result is identical to Run's, and
// with a nil sink so is the call.
func (p *Pool) RunWithMetrics(sc Scenario, sink MetricsSink) (*Result, error) {
	return p.run(sc, nil, sink)
}
