// Package fault provides a deterministic, scenario-scriptable
// fault-injection subsystem for the MANET simulator. A Plan is a
// timeline of typed events — arena partitions, regional jamming, global
// loss bursts, correlated node crashes and periodic link flaps — that an
// Injector executes against hooks into the radio medium (per-delivery
// gating and loss overrides) and the node lifecycle (forced down/up,
// distinct from churn). All randomness flows from one *rand.Rand handed
// in by the caller, so the same seed and the same plan reproduce the
// same failures bit for bit.
//
// The paper's contribution is (re)configuration — overlays that heal
// when the network underneath them breaks — and the events here script
// exactly the correlated failure regimes (IPDPS 2003 §§5–7 motivates)
// that homogeneous Poisson churn cannot express.
package fault

import (
	"fmt"

	"manetp2p/internal/geom"
	"manetp2p/internal/sim"
)

// Kind identifies a fault event type.
type Kind int

// The fault event types.
const (
	// Partition splits the arena along an axis-aligned line for the
	// event's duration: no frame crosses the line.
	Partition Kind = iota
	// Jam elevates packet loss for every delivery touching a circular
	// region (either endpoint inside).
	Jam
	// LossBurst adds a global loss probability to every delivery.
	LossBurst
	// CrashGroup takes a correlated group of member nodes down at once
	// and restarts them when the event clears.
	CrashGroup
	// LinkFlap gates all radio links down periodically: every Period,
	// links are dead for DownFor.
	LinkFlap
	numKinds
)

// String names the kind as it appears in plan JSON and reports.
func (k Kind) String() string {
	switch k {
	case Partition:
		return "partition"
	case Jam:
		return "jam"
	case LossBurst:
		return "lossburst"
	case CrashGroup:
		return "crashgroup"
	case LinkFlap:
		return "linkflap"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindNames lists the valid plan-JSON type strings in declaration order.
func KindNames() []string {
	out := make([]string, 0, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		out = append(out, k.String())
	}
	return out
}

// ParseKind maps a plan-JSON type string back to its Kind.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown event type %q (valid: %s)",
		s, joinNames())
}

func joinNames() string {
	out := ""
	for i, n := range KindNames() {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// Axis selects the orientation of a partition cut.
type Axis int

// Partition cut orientations.
const (
	// AxisX cuts along the vertical line X = Pos.
	AxisX Axis = iota
	// AxisY cuts along the horizontal line Y = Pos.
	AxisY
)

// String names the axis as it appears in plan JSON.
func (a Axis) String() string {
	if a == AxisY {
		return "y"
	}
	return "x"
}

// Event is one entry of a fault Plan. Only the fields of its Kind are
// meaningful; the rest stay zero.
type Event struct {
	Kind     Kind
	At       sim.Time // activation instant
	Duration sim.Time // active window length

	// Partition: the cut line Axis = Pos.
	Axis Axis
	Pos  float64

	// Jam: the jammed disc.
	Center geom.Point
	Radius float64

	// Jam and LossBurst: added per-delivery drop probability (1 kills
	// every delivery outright).
	Loss float64

	// CrashGroup: how many members crash — an absolute Count, or a
	// Fraction of the membership when Count is zero.
	Count    int
	Fraction float64

	// LinkFlap: every Period within the window, links are gated down
	// for DownFor.
	Period  sim.Time
	DownFor sim.Time
}

// Clears returns the instant the event's effect ends.
func (e Event) Clears() sim.Time { return e.At + e.Duration }

// Label returns a compact identifier for reports, e.g. "partition@600s".
func (e Event) Label() string {
	return fmt.Sprintf("%s@%.0fs", e.Kind, e.At.Seconds())
}

// Validate reports a descriptive error for an inconsistent event.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("fault: %s At %v negative", e.Kind, e.At)
	}
	if e.Duration <= 0 {
		return fmt.Errorf("fault: %s Duration %v not positive", e.Kind, e.Duration)
	}
	if e.At > sim.Horizon || e.Duration > sim.Horizon {
		return fmt.Errorf("fault: %s At %v + Duration %v beyond the plan horizon %v", e.Kind, e.At, e.Duration, sim.Horizon)
	}
	switch e.Kind {
	case Partition:
		if e.Axis != AxisX && e.Axis != AxisY {
			return fmt.Errorf("fault: partition axis %d invalid (want x or y)", int(e.Axis))
		}
	case Jam:
		if e.Radius <= 0 {
			return fmt.Errorf("fault: jam radius %v not positive", e.Radius)
		}
		if e.Loss <= 0 || e.Loss > 1 {
			return fmt.Errorf("fault: jam loss %v outside (0,1]", e.Loss)
		}
	case LossBurst:
		if e.Loss <= 0 || e.Loss > 1 {
			return fmt.Errorf("fault: lossburst loss %v outside (0,1]", e.Loss)
		}
	case CrashGroup:
		if e.Count < 0 {
			return fmt.Errorf("fault: crashgroup count %d negative", e.Count)
		}
		if e.Count == 0 && (e.Fraction <= 0 || e.Fraction > 1) {
			return fmt.Errorf("fault: crashgroup needs Count > 0 or Fraction in (0,1], got count %d fraction %v",
				e.Count, e.Fraction)
		}
	case LinkFlap:
		if e.Period <= 0 {
			return fmt.Errorf("fault: linkflap period %v not positive", e.Period)
		}
		if e.DownFor <= 0 || e.DownFor > e.Period {
			return fmt.Errorf("fault: linkflap DownFor %v outside (0, period=%v]", e.DownFor, e.Period)
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", int(e.Kind))
	}
	return nil
}

// side reports which half of a partition cut p falls on.
func (e Event) side(p geom.Point) bool {
	if e.Axis == AxisY {
		return p.Y < e.Pos
	}
	return p.X < e.Pos
}

// inRegion reports whether p lies inside a jam disc.
func (e Event) inRegion(p geom.Point) bool {
	return p.Dist2(e.Center) <= e.Radius*e.Radius
}

// Plan is a timeline of fault events. The zero Plan injects nothing.
type Plan struct {
	Events []Event `json:"events,omitempty"`
}

// Empty reports whether the plan has no events.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// Validate reports the first invalid event.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// PartitionEvent scripts an arena split along axis = pos for dur
// starting at at.
func PartitionEvent(at, dur sim.Time, axis Axis, pos float64) Event {
	return Event{Kind: Partition, At: at, Duration: dur, Axis: axis, Pos: pos}
}

// JamEvent scripts a circular jammed region with the given added loss
// probability.
func JamEvent(at, dur sim.Time, center geom.Point, radius, loss float64) Event {
	return Event{Kind: Jam, At: at, Duration: dur, Center: center, Radius: radius, Loss: loss}
}

// LossBurstEvent scripts a global loss spike of the given probability.
func LossBurstEvent(at, dur sim.Time, loss float64) Event {
	return Event{Kind: LossBurst, At: at, Duration: dur, Loss: loss}
}

// CrashGroupEvent scripts a correlated crash of count members, restarted
// when the event clears.
func CrashGroupEvent(at, dur sim.Time, count int) Event {
	return Event{Kind: CrashGroup, At: at, Duration: dur, Count: count}
}

// CrashFractionEvent scripts a correlated crash of a fraction of the
// membership, restarted when the event clears.
func CrashFractionEvent(at, dur sim.Time, fraction float64) Event {
	return Event{Kind: CrashGroup, At: at, Duration: dur, Fraction: fraction}
}

// LinkFlapEvent scripts periodic link outages: within [at, at+dur),
// every period starts with downFor of dead air.
func LinkFlapEvent(at, dur, period, downFor sim.Time) Event {
	return Event{Kind: LinkFlap, At: at, Duration: dur, Period: period, DownFor: downFor}
}
