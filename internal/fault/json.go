package fault

import (
	"encoding/json"
	"fmt"

	"manetp2p/internal/geom"
	"manetp2p/internal/sim"
)

// Plan JSON is the hand-authored surface of the subsystem
// (cmd/p2psim -faults plan.json), so unlike the rest of the scenario
// JSON — which serializes sim.Time as integer microseconds — fault
// events use floating-point *seconds* for every time field:
//
//	{"events": [
//	  {"type": "partition", "at": 600, "duration": 60, "axis": "x", "pos": 50},
//	  {"type": "jam", "at": 900, "duration": 120, "x": 25, "y": 25,
//	   "radius": 20, "loss": 0.9},
//	  {"type": "lossburst", "at": 1200, "duration": 30, "loss": 0.5},
//	  {"type": "crashgroup", "at": 1500, "duration": 300, "count": 10},
//	  {"type": "linkflap", "at": 1800, "duration": 240,
//	   "period": 20, "downFor": 5}
//	]}
//
// Unknown event types are rejected with an error listing the valid ones.

// eventJSON is the wire shape of an Event; times are seconds.
type eventJSON struct {
	Type     string  `json:"type"`
	At       float64 `json:"at"`
	Duration float64 `json:"duration"`
	Axis     string  `json:"axis,omitempty"`
	Pos      float64 `json:"pos,omitempty"`
	X        float64 `json:"x,omitempty"`
	Y        float64 `json:"y,omitempty"`
	Radius   float64 `json:"radius,omitempty"`
	Loss     float64 `json:"loss,omitempty"`
	Count    int     `json:"count,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Period   float64 `json:"period,omitempty"`
	DownFor  float64 `json:"downFor,omitempty"`
}

// MarshalJSON renders the event with its type tag and only the fields
// its kind uses.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{
		Type:     e.Kind.String(),
		At:       e.At.Seconds(),
		Duration: e.Duration.Seconds(),
	}
	switch e.Kind {
	case Partition:
		j.Axis = e.Axis.String()
		j.Pos = e.Pos
	case Jam:
		j.X, j.Y = e.Center.X, e.Center.Y
		j.Radius = e.Radius
		j.Loss = e.Loss
	case LossBurst:
		j.Loss = e.Loss
	case CrashGroup:
		j.Count = e.Count
		j.Fraction = e.Fraction
	case LinkFlap:
		j.Period = e.Period.Seconds()
		j.DownFor = e.DownFor.Seconds()
	}
	return json.Marshal(j)
}

// UnmarshalJSON parses the type tag and the kind's fields, rejecting
// unknown types with a clear error.
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := sim.DecodeStrict(data, &j); err != nil {
		return fmt.Errorf("fault: parsing event: %w", err)
	}
	kind, err := ParseKind(j.Type)
	if err != nil {
		return err
	}
	var sec sim.PlanSeconds
	*e = Event{
		Kind:     kind,
		At:       sec.Time("at", j.At),
		Duration: sec.Time("duration", j.Duration),
	}
	switch kind {
	case Partition:
		switch j.Axis {
		case "x", "":
			e.Axis = AxisX
		case "y":
			e.Axis = AxisY
		default:
			return fmt.Errorf("fault: partition axis %q invalid (valid: x, y)", j.Axis)
		}
		e.Pos = j.Pos
	case Jam:
		e.Center = geom.Point{X: j.X, Y: j.Y}
		e.Radius = j.Radius
		e.Loss = j.Loss
	case LossBurst:
		e.Loss = j.Loss
	case CrashGroup:
		e.Count = j.Count
		e.Fraction = j.Fraction
	case LinkFlap:
		e.Period = sec.Time("period", j.Period)
		e.DownFor = sec.Time("downFor", j.DownFor)
	}
	if sec.Err != nil {
		return fmt.Errorf("fault: %s event: %w", kind, sec.Err)
	}
	return nil
}
