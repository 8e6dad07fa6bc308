// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Sim owns a virtual clock and an event queue. Events scheduled for the
// same instant fire in scheduling order, which makes runs with the same
// seed bit-for-bit reproducible. The kernel is single-threaded by design;
// parallelism in this repository comes from running many independent Sim
// instances concurrently (one per replication), never from sharing one.
package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Time is a simulation instant or duration, measured in integer
// microseconds. Integer time gives events a total order with no
// floating-point drift across platforms.
type Time int64

// Convenient duration units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// MaxTime is the largest representable instant; Run(MaxTime) means
// "run until the event queue drains".
const MaxTime Time = math.MaxInt64

// FromSeconds converts a duration in seconds to a Time, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time {
	return Time(math.Round(s * float64(Second)))
}

// Horizon bounds every instant and span a hand-authored plan (fault
// and workload files, whose times are float seconds) may state: 1e9 s,
// about 31.7 years. Plans validate against it, so sums of two plan times
// stay far below MaxTime.
const Horizon = 1e9 * Second

// PlanSeconds converts the float seconds of one plan file into Times. A
// value that is not finite or lies beyond ±Horizon is refused before
// the conversion — an out-of-range float to int64 is platform-defined —
// and remembered in Err, so a decoder converts every field and checks
// once.
type PlanSeconds struct{ Err error }

// Time converts s, the value of the named field.
func (p *PlanSeconds) Time(field string, s float64) Time {
	if !(math.Abs(s) <= Horizon.Seconds()) { // NaN fails every comparison
		if p.Err == nil {
			p.Err = fmt.Errorf("%s %v s outside ±%g s", field, s, Horizon.Seconds())
		}
		return 0
	}
	return FromSeconds(s)
}

// DecodeStrict decodes the one JSON value in data into v, refusing a
// key v has no field for and anything after the value. Scenario and
// plan files are hand-authored, so a typoed key must not read as a key
// left unset; every custom UnmarshalJSON of a plan type decodes through
// here too, because a decoder's strictness does not reach inside one.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with microsecond precision,
// e.g. "12.000345s".
func (t Time) String() string {
	neg := ""
	v := t
	if v < 0 {
		neg, v = "-", -v
	}
	return fmt.Sprintf("%s%d.%06ds", neg, v/Second, v%Second)
}
