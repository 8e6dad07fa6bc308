package workload

import (
	"encoding/json"
	"fmt"

	"manetp2p/internal/sim"
)

// Plan JSON is hand-authored (cmd/p2psim -workload plan.json), so like
// the fault plans — and unlike the rest of the scenario JSON, which
// serializes sim.Time as integer microseconds — every time field here
// is floating-point *seconds*, and the arrival block carries a
// "process" tag:
//
//	{
//	  "arrival": {"process": "onoff", "rate": 0.1,
//	              "meanOn": 60, "meanOff": 180},
//	  "popularity": {"skew": 1.2, "driftPerHour": -0.2,
//	                 "rotateEvery": 900},
//	  "sessions": {"classes": [
//	    {"name": "seeder", "weight": 0.2, "rateScale": 0.3},
//	    {"name": "transient", "weight": 0.3,
//	     "meanUptime": 600, "meanDowntime": 120}]},
//	  "phases": [
//	    {"name": "ramp", "start": 0, "rateScale": 0.5},
//	    {"name": "steady", "start": 600},
//	    {"name": "flash", "start": 1800, "rateScale": 3,
//	     "hotFiles": 3, "hotBoost": 0.8},
//	    {"name": "drain", "start": 2400, "rateScale": 0.1}]
//	}
//
// Unknown process names are rejected with an error listing the valid
// ones.

// arrivalJSON is the wire shape of an Arrival; times are seconds.
type arrivalJSON struct {
	Process   string  `json:"process"`
	GapMin    float64 `json:"gapMin,omitempty"`
	GapMax    float64 `json:"gapMax,omitempty"`
	Rate      float64 `json:"rate,omitempty"`
	MeanOn    float64 `json:"meanOn,omitempty"`
	MeanOff   float64 `json:"meanOff,omitempty"`
	Period    float64 `json:"period,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
}

// MarshalJSON renders the arrival with its process tag and every set
// field, also one its process ignores: decoding gives the arrival back.
func (a Arrival) MarshalJSON() ([]byte, error) {
	return json.Marshal(arrivalJSON{
		Process:   a.Process.String(),
		GapMin:    a.GapMin.Seconds(),
		GapMax:    a.GapMax.Seconds(),
		Rate:      a.Rate,
		MeanOn:    a.MeanOn.Seconds(),
		MeanOff:   a.MeanOff.Seconds(),
		Period:    a.Period.Seconds(),
		Amplitude: a.Amplitude,
	})
}

// UnmarshalJSON parses the process tag and its fields, rejecting
// unknown processes with a clear error.
func (a *Arrival) UnmarshalJSON(data []byte) error {
	var j arrivalJSON
	if err := sim.DecodeStrict(data, &j); err != nil {
		return fmt.Errorf("workload: parsing arrival: %w", err)
	}
	p, err := ParseProcess(j.Process)
	if err != nil {
		return err
	}
	var sec sim.PlanSeconds
	*a = Arrival{
		Process:   p,
		GapMin:    sec.Time("gapMin", j.GapMin),
		GapMax:    sec.Time("gapMax", j.GapMax),
		Rate:      j.Rate,
		MeanOn:    sec.Time("meanOn", j.MeanOn),
		MeanOff:   sec.Time("meanOff", j.MeanOff),
		Period:    sec.Time("period", j.Period),
		Amplitude: j.Amplitude,
	}
	return planErr("arrival", sec)
}

// planErr names the block whose time field sec refused.
func planErr(block string, sec sim.PlanSeconds) error {
	if sec.Err != nil {
		return fmt.Errorf("workload: %s: %w", block, sec.Err)
	}
	return nil
}

// popularityJSON is the wire shape of a Popularity; RotateEvery is
// seconds.
type popularityJSON struct {
	Skew         float64 `json:"skew,omitempty"`
	DriftPerHour float64 `json:"driftPerHour,omitempty"`
	RotateEvery  float64 `json:"rotateEvery,omitempty"`
	RotateStep   int     `json:"rotateStep,omitempty"`
}

// MarshalJSON renders the popularity model in seconds.
func (p Popularity) MarshalJSON() ([]byte, error) {
	return json.Marshal(popularityJSON{
		Skew:         p.Skew,
		DriftPerHour: p.DriftPerHour,
		RotateEvery:  p.RotateEvery.Seconds(),
		RotateStep:   p.RotateStep,
	})
}

// UnmarshalJSON parses the popularity model.
func (p *Popularity) UnmarshalJSON(data []byte) error {
	var j popularityJSON
	if err := sim.DecodeStrict(data, &j); err != nil {
		return fmt.Errorf("workload: parsing popularity: %w", err)
	}
	var sec sim.PlanSeconds
	*p = Popularity{
		Skew:         j.Skew,
		DriftPerHour: j.DriftPerHour,
		RotateEvery:  sec.Time("rotateEvery", j.RotateEvery),
		RotateStep:   j.RotateStep,
	}
	return planErr("popularity", sec)
}

// classJSON is the wire shape of a SessionClass; times are seconds.
type classJSON struct {
	Name          string  `json:"name"`
	Weight        float64 `json:"weight"`
	RateScale     float64 `json:"rateScale,omitempty"`
	UptimeScale   float64 `json:"uptimeScale,omitempty"`
	DowntimeScale float64 `json:"downtimeScale,omitempty"`
	MeanUptime    float64 `json:"meanUptime,omitempty"`
	MeanDowntime  float64 `json:"meanDowntime,omitempty"`
}

// MarshalJSON renders the class in seconds.
func (c SessionClass) MarshalJSON() ([]byte, error) {
	return json.Marshal(classJSON{
		Name:          c.Name,
		Weight:        c.Weight,
		RateScale:     c.RateScale,
		UptimeScale:   c.UptimeScale,
		DowntimeScale: c.DowntimeScale,
		MeanUptime:    c.MeanUptime.Seconds(),
		MeanDowntime:  c.MeanDowntime.Seconds(),
	})
}

// UnmarshalJSON parses the class.
func (c *SessionClass) UnmarshalJSON(data []byte) error {
	var j classJSON
	if err := sim.DecodeStrict(data, &j); err != nil {
		return fmt.Errorf("workload: parsing session class: %w", err)
	}
	var sec sim.PlanSeconds
	*c = SessionClass{
		Name:          j.Name,
		Weight:        j.Weight,
		RateScale:     j.RateScale,
		UptimeScale:   j.UptimeScale,
		DowntimeScale: j.DowntimeScale,
		MeanUptime:    sec.Time("meanUptime", j.MeanUptime),
		MeanDowntime:  sec.Time("meanDowntime", j.MeanDowntime),
	}
	return planErr("session class "+j.Name, sec)
}

// phaseJSON is the wire shape of a Phase; Start is seconds.
type phaseJSON struct {
	Name      string  `json:"name"`
	Start     float64 `json:"start"`
	RateScale float64 `json:"rateScale,omitempty"`
	HotFiles  int     `json:"hotFiles,omitempty"`
	HotBoost  float64 `json:"hotBoost,omitempty"`
}

// MarshalJSON renders the phase in seconds.
func (p Phase) MarshalJSON() ([]byte, error) {
	return json.Marshal(phaseJSON{
		Name:      p.Name,
		Start:     p.Start.Seconds(),
		RateScale: p.RateScale,
		HotFiles:  p.HotFiles,
		HotBoost:  p.HotBoost,
	})
}

// UnmarshalJSON parses the phase.
func (p *Phase) UnmarshalJSON(data []byte) error {
	var j phaseJSON
	if err := sim.DecodeStrict(data, &j); err != nil {
		return fmt.Errorf("workload: parsing phase: %w", err)
	}
	var sec sim.PlanSeconds
	*p = Phase{
		Name:      j.Name,
		Start:     sec.Time("start", j.Start),
		RateScale: j.RateScale,
		HotFiles:  j.HotFiles,
		HotBoost:  j.HotBoost,
	}
	return planErr("phase "+j.Name, sec)
}
