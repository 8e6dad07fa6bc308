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
	period := sc.healthEvery()
	if period <= 0 {
		return nil
	}
	res := &Resilience{SampleEvery: period.Seconds()}

	var largest, links, connRate [][]float64
	for _, rr := range reps {
		if len(rr.Health) == 0 {
			continue
		}
		if res.Times == nil {
			for _, h := range rr.Health {
				res.Times = append(res.Times, h.At.Seconds())
			}
		}
		lc := make([]float64, len(rr.Health))
		lk := make([]float64, len(rr.Health))
		cr := make([]float64, len(rr.Health))
		prev := uint64(0)
		for i, h := range rr.Health {
			lc[i] = h.LargestComp
			lk[i] = float64(h.Links)
			if rr.Members > 0 {
				cr[i] = float64(h.Received[telemetry.Connect]-prev) /
					float64(rr.Members) / period.Seconds()
			}
			prev = h.Received[telemetry.Connect]
		}
		largest = append(largest, lc)
		links = append(links, lk)
		connRate = append(connRate, cr)
	}
	res.LargestComp = stats.MeanSeries(largest)
	res.Links = stats.MeanSeries(links)
	res.ConnectRate = stats.MeanSeries(connRate)

	for _, ev := range sc.Faults.Events {
		er := EventRecovery{Label: ev.Label(), ClearSeconds: ev.Clears().Seconds()}
		var baselines, troughs, reheals, residuals, costs []float64
		rehealed, n := 0, 0
		for _, rr := range reps {
			h := rr.Health
			if len(h) == 0 {
				continue
			}
			n++

			// Baseline: the last sample at or before the fault starts.
			bi := 0
			for i, s := range h {
				if s.At > ev.At {
					break
				}
				bi = i
			}
			baseline := h[bi].LargestComp
			baselines = append(baselines, baseline)

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
			troughs = append(troughs, trough)

			last := h[len(h)-1].LargestComp
			residuals = append(residuals, math.Max(0, baseline-last))

			if ri >= 0 {
				rehealed++
				reheals = append(reheals, (h[ri].At - clear).Seconds())
				if rr.Members > 0 {
					cost := float64(h[ri].Received[telemetry.Connect]-h[ci].Received[telemetry.Connect]) /
						float64(rr.Members)
					costs = append(costs, cost)
				}
			}
		}
		if n == 0 {
			continue
		}
		er.Baseline = stats.Summarize(baselines)
		er.Trough = stats.Summarize(troughs)
		er.RehealSeconds = stats.Summarize(reheals)
		er.RehealedFraction = float64(rehealed) / float64(n)
		er.ResidualDisconnect = stats.Summarize(residuals)
		er.RecoveryMessages = stats.Summarize(costs)
		res.Events = append(res.Events, er)
	}
	return res
}
