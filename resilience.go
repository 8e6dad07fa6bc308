package manetp2p

import (
	"math"

	"manetp2p/internal/stats"
	"manetp2p/internal/telemetry"
)

// This file derives the recovery metrics from the resilience telemetry
// the health sampler records during fault-injected runs: for every
// scripted fault, how long the overlay took to re-heal after the fault
// cleared, how much connectivity never came back, and how many connect
// messages the re-healing cost. The numbers quantify exactly the
// property the paper's (re)configuration algorithms exist to provide.

// rehealFraction: the overlay counts as re-healed once its
// largest-component fraction returns to within 10 % of the pre-fault
// baseline.
const rehealFraction = 0.9

// EventRecovery aggregates one scripted fault's recovery behaviour over
// all replications.
type EventRecovery struct {
	Label        string  // e.g. "partition@600s"
	ClearSeconds float64 // when the fault's effect ended

	Baseline stats.Summary // largest-component fraction just before the fault
	Trough   stats.Summary // minimum largest-component fraction until re-heal

	// RehealSeconds is the time from fault clearance until the largest
	// component returns to within 10 % of the baseline, over the
	// replications that re-healed at all.
	RehealSeconds    stats.Summary
	RehealedFraction float64 // share of replications that re-healed

	// ResidualDisconnect is how far below the baseline the largest
	// component still sat at the end of the run (0 = fully recovered).
	ResidualDisconnect stats.Summary

	// RecoveryMessages counts connect-class messages received per
	// member between fault clearance and re-heal — the message cost of
	// recovery (re-healed replications only).
	RecoveryMessages stats.Summary
}

// Resilience is the fault-injection section of a Result: the averaged
// health time series plus per-event recovery telemetry. Nil when
// telemetry was off (no faults and no explicit HealthEvery).
type Resilience struct {
	SampleEvery float64 // seconds between samples

	// Time series averaged rank-wise across replications.
	Times       []float64 // sample instants, seconds
	LargestComp []float64 // largest-component fraction of members
	Links       []float64 // overlay link count
	ConnectRate []float64 // connect messages received per member per second

	Events []EventRecovery
}

// computeResilience folds the per-replication health series into the
// Result's resilience section. Everything here is deterministic in the
// replication data, so equal seeds and plans give byte-identical output.
func computeResilience(sc Scenario, reps []*repResult) *Resilience {
	period := sc.HealthPeriod()
	if period <= 0 {
		return nil
	}
	res := &Resilience{SampleEvery: period.Seconds()}
	var sampled []*repResult // the replications that recorded health: only they are pooled
	for _, rr := range reps {
		if len(rr.Health) > 0 {
			sampled = append(sampled, rr)
		}
	}
	if len(sampled) == 0 {
		return res
	}
	for _, h := range sampled[0].Health {
		res.Times = append(res.Times, h.At.Seconds())
	}
	healthSeries := func(value func(rr *repResult, i int) float64) []float64 {
		return poolSeries(sampled, func(rr *repResult) []float64 {
			out := make([]float64, len(rr.Health))
			for i := range out {
				out[i] = value(rr, i)
			}
			return out
		})
	}
	res.LargestComp = healthSeries(func(rr *repResult, i int) float64 { return rr.Health[i].LargestComp })
	res.Links = healthSeries(func(rr *repResult, i int) float64 { return float64(rr.Health[i].Links) })
	res.ConnectRate = healthSeries(func(rr *repResult, i int) float64 {
		members := len(rr.Totals[telemetry.Connect])
		if members == 0 {
			return 0
		}
		var prev uint64
		if i > 0 {
			prev = rr.Health[i-1].Received[telemetry.Connect]
		}
		return float64(rr.Health[i].Received[telemetry.Connect]-prev) /
			float64(members) / period.Seconds()
	})

	for _, ev := range sc.Faults.Events {
		recs := make(map[*repResult]recovery, len(sampled))
		for _, rr := range sampled {
			recs[rr] = recoveryOf(ev, rr)
		}
		er := EventRecovery{Label: ev.Label(), ClearSeconds: ev.Clears().Seconds()}
		er.Baseline = poolEach(sampled, func(rr *repResult) float64 { return recs[rr].baseline })
		er.Trough = poolEach(sampled, func(rr *repResult) float64 { return recs[rr].trough })
		er.RehealSeconds = poolAll(sampled, func(rr *repResult) []float64 { return recs[rr].reheal })
		er.RehealedFraction = float64(er.RehealSeconds.N) / float64(len(sampled))
		er.ResidualDisconnect = poolEach(sampled, func(rr *repResult) float64 { return recs[rr].residual })
		er.RecoveryMessages = poolAll(sampled, func(rr *repResult) []float64 { return recs[rr].cost })
		res.Events = append(res.Events, er)
	}
	return res
}

// recovery is one replication's response to one scripted fault. reheal
// and cost hold one sample if the overlay re-healed (cost: and has
// members), else none: they pool over the re-healed replications only.
type recovery struct {
	baseline float64 // largest-component fraction just before the fault
	trough   float64 // its minimum from fault start to re-heal (or the end of the run)
	residual float64 // how far below the baseline the run ended
	reheal   []float64
	cost     []float64
}

// recoveryOf reads one fault's recovery out of a replication's health
// samples (at least one).
func recoveryOf(ev FaultEvent, rr *repResult) recovery {
	h := rr.Health

	// Baseline: the last sample at or before the fault starts.
	bi := 0
	for i, s := range h {
		if s.At > ev.At {
			break
		}
		bi = i
	}
	baseline := h[bi].LargestComp

	// Re-heal: the first post-clearance sample back within 10 %
	// of the baseline; ci is the first post-clearance sample.
	clear := ev.Clears()
	ri, ci := -1, -1
	for i, s := range h {
		if s.At < clear {
			continue
		}
		if ci < 0 {
			ci = i
		}
		if s.LargestComp >= rehealFraction*baseline {
			ri = i
			break
		}
	}

	// Trough: the worst connectivity between fault start and
	// re-heal (or the end of the run).
	hi := len(h)
	if ri >= 0 {
		hi = ri + 1
	}
	trough := baseline
	for _, s := range h[bi:hi] {
		if s.At >= ev.At && s.LargestComp < trough {
			trough = s.LargestComp
		}
	}

	rec := recovery{
		baseline: baseline,
		trough:   trough,
		residual: math.Max(0, baseline-h[len(h)-1].LargestComp),
	}
	if ri >= 0 {
		rec.reheal = []float64{(h[ri].At - clear).Seconds()}
		if members := len(rr.Totals[telemetry.Connect]); members > 0 {
			rec.cost = []float64{float64(h[ri].Received[telemetry.Connect]-h[ci].Received[telemetry.Connect]) /
				float64(members)}
		}
	}
	return rec
}
