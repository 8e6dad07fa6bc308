package manetp2p

import (
	"bytes"
	"encoding/json"
	"fmt"

	"manetp2p/internal/telemetry"
)

// This file holds the scenario-level half of the invariant tentpole: the
// aggregation of per-replication checker findings into Result.Invariants
// and the determinism self-audit — the reproducibility claim every
// figure in the paper reproduction rests on, turned into a checkable
// property: the same seed must yield a byte-identical Result, and the
// result must not depend on how replications were scheduled across the
// worker pool.

// ReplicationViolations is one replication's invariant breaches.
type ReplicationViolations struct {
	Replication int   // replication index within the scenario
	Seed        int64 // the replication's effective seed
	Total       int   // breaches detected, including past the recording cap
	Violations  []InvariantViolation
}

// InvariantReport aggregates the invariant checker's findings across a
// scenario's replications.
type InvariantReport struct {
	Replications int // replications validated
	Violations   int // total breaches across all of them
	// PerReplication lists only the offending replications.
	PerReplication []ReplicationViolations `json:",omitempty"`
}

// OK reports whether every validated replication was clean.
func (r *InvariantReport) OK() bool { return r == nil || r.Violations == 0 }

// invariantReport folds the per-replication checker findings, or nil
// when the checker never ran.
func invariantReport(sc Scenario, reps []*repResult) *InvariantReport {
	rep := &InvariantReport{}
	for i, rr := range reps {
		if !rr.Checked {
			continue
		}
		rep.Replications++
		rep.Violations += rr.ViolTotal
		if rr.ViolTotal > 0 {
			rep.PerReplication = append(rep.PerReplication, ReplicationViolations{
				Replication: i,
				Seed:        sc.Seed + int64(i),
				Total:       rr.ViolTotal,
				Violations:  rr.Violations,
			})
		}
	}
	if rep.Replications == 0 {
		return nil
	}
	return rep
}

// SelfAuditReport is the outcome of SelfAudit.
type SelfAuditReport struct {
	// Deterministic: rerunning the scenario with the same seed produced
	// a byte-identical Result.
	Deterministic bool
	// ScheduleIndependent: a serial (Workers=1) run matched the pooled
	// run — replication results do not depend on worker scheduling.
	ScheduleIndependent bool
	// PooledN: every pooled summary's sample count obeyed the telemetry
	// plane's conservation law (one sample per replication, or per node
	// per replication, depending on the section).
	PooledN bool
	// StepIndependent: replication 0 stepped to the horizon in eight
	// Simulation.Step segments produced a byte-identical replication
	// record (the repResult a checkpoint stores, as canonical JSON) to
	// the one the base run took there in a single call — segmenting a
	// run does not perturb it.
	StepIndependent bool
	// Invariants carries the instrumented base run's checker findings.
	Invariants *InvariantReport
	// Detail describes the first fingerprint, pooled-N or replication
	// record mismatch, when any.
	Detail string
}

// OK reports whether the audit passed outright.
func (r *SelfAuditReport) OK() bool {
	return r.Deterministic && r.ScheduleIndependent && r.PooledN && r.StepIndependent && r.Invariants.OK()
}

// SelfAudit runs the scenario's invariant suite and determinism audit:
// the scenario executes three times — instrumented base run, identical
// rerun, serial (Workers=1) run — and the Results are compared as
// canonical JSON with the Workers knob normalized out; replication 0
// then runs once more in segments, and its record is compared with the
// base run's. The invariant checker is forced on throughout. Expect a
// little over three full scenario runs' worth of wall-clock; size the
// scenario accordingly.
func SelfAudit(sc Scenario) (*SelfAuditReport, error) {
	inv := InvariantConfig{Enabled: true}
	if sc.Invariants != nil {
		inv = *sc.Invariants
		inv.Enabled = true
	}
	sc.Invariants = &inv

	reps, err := NewPool(sc.Workers).runReps(sc, nil)
	if err != nil {
		return nil, err
	}
	base := aggregate(sc, reps)
	again, err := Run(sc)
	if err != nil {
		return nil, err
	}
	serial := sc
	serial.Workers = 1
	one, err := Run(serial)
	if err != nil {
		return nil, err
	}

	var fps [3][]byte
	for i, res := range []*Result{base, again, one} {
		if fps[i], err = fingerprint(res); err != nil {
			return nil, err
		}
	}
	fpBase, fpAgain, fpOne := fps[0], fps[1], fps[2]

	const segments = 8
	cuts := make([]Duration, segments-1)
	for i := range cuts {
		cuts[i] = Duration(i+1) * (sc.Duration / segments)
	}
	straight, err := json.Marshal(reps[0])
	if err != nil {
		return nil, err
	}
	stepped, err := replicationRecord(sc, cuts)
	if err != nil {
		return nil, err
	}

	pooledN := auditPooledN(base)
	rep := &SelfAuditReport{
		Deterministic:       bytes.Equal(fpBase, fpAgain),
		ScheduleIndependent: bytes.Equal(fpBase, fpOne),
		PooledN:             pooledN == "",
		StepIndependent:     bytes.Equal(straight, stepped),
		Invariants:          base.Invariants,
	}
	switch {
	case !rep.Deterministic:
		rep.Detail = diffDetail("rerun", fpBase, fpAgain)
	case !rep.ScheduleIndependent:
		rep.Detail = diffDetail("serial run", fpBase, fpOne)
	case !rep.PooledN:
		rep.Detail = pooledN
	case !rep.StepIndependent:
		rep.Detail = diffDetail(fmt.Sprintf("replication 0 in %d Step segments", segments), straight, stepped)
	}
	return rep, nil
}

// replicationRecord runs replication 0 with the clock stopping at each
// of cuts and returns its record as canonical JSON.
func replicationRecord(sc Scenario, cuts []Duration) ([]byte, error) {
	rr := runReplication(sc, 0, cuts)
	if rr.err != nil {
		return nil, rr.err
	}
	return json.Marshal(rr)
}

// auditPooledN checks the telemetry plane's pooled-sample conservation
// law on an aggregated Result: a summary pooled one-sample-per-
// replication must report N equal to the replication count, a summary
// pooled one-sample-per-node must report N equal to NumNodes ×
// replications, and the per-class received totals must all pool the
// same member population. Returns "" on success or a description of
// the first violation.
func auditPooledN(res *Result) string {
	reps := res.Scenario.Replications
	perNode := reps * res.Scenario.NumNodes
	type check struct {
		name    string
		n, want int
	}
	checks := []check{
		{"radio.RxFrames", res.RxFrames.N, perNode},
		{"radio.TxFrames", res.TxFrames.N, perNode},
		{"energy.EnergySpent", res.EnergySpent.N, perNode},
		{"energy.Deaths", res.Deaths.N, reps},
	}
	for class := 1; class < telemetry.NumClasses; class++ {
		checks = append(checks, check{
			name: fmt.Sprintf("servent.Totals[%v]", telemetry.Class(class)),
			n:    res.Totals[class].N,
			want: res.Totals[telemetry.Connect].N,
		})
	}
	if rt := res.Routing; rt != nil {
		for _, c := range routingCounters {
			checks = append(checks, check{"route." + c.name, c.pooled(rt).N, perNode})
		}
	}
	if ws := res.Workload; ws != nil {
		for _, c := range workloadCounters {
			checks = append(checks, check{"workload." + c.name, c.pooled(ws).N, reps})
		}
	}
	for _, c := range checks {
		if c.n != c.want {
			return fmt.Sprintf("telemetry pooled-N conservation: %s pooled N=%d, want %d", c.name, c.n, c.want)
		}
	}
	return ""
}

// fingerprint canonicalizes a Result for comparison: the Workers knob is
// pure execution policy, so it is normalized out before marshalling.
func fingerprint(res *Result) ([]byte, error) {
	clone := *res
	clone.Scenario.Workers = 0
	return json.Marshal(&clone)
}

// diffDetail locates the first divergence between two fingerprints and
// quotes it with some context.
func diffDetail(what string, a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	ctx := func(s []byte) string {
		lo, hi := i-30, i+30
		if lo < 0 {
			lo = 0
		}
		if hi > len(s) {
			hi = len(s)
		}
		return string(s[lo:hi])
	}
	return fmt.Sprintf("%s diverges at byte %d: %q vs %q", what, i, ctx(a), ctx(b))
}
