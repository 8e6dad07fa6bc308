package manetp2p

import (
	"io"

	"manetp2p/internal/telemetry"
)

// The streaming metrics sink: in addition to the pooled in-memory
// Result, a run given Outputs.Sink emits every telemetry section's raw
// per-replication time series. Streaming is deterministic — points are
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
