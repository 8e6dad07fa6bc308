package manetp2p

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"manetp2p/internal/sim"
)

// This file provides JSON (de)serialization for scenarios so experiment
// configurations can live in version-controlled files and be replayed
// exactly:
//
//	sc, _ := manetp2p.LoadScenario("experiments/fig7.json")
//	res, _ := manetp2p.Run(sc)
//
// Durations serialize as integer microseconds (the sim.Time unit), with
// one deliberate exception: the Faults plan is the hand-authored part
// of a scenario, so its events carry a "type" tag and use
// floating-point seconds (see internal/fault, json.go). Unknown fault
// event types are rejected with an error listing the valid ones.

// MarshalJSONScenario renders sc as indented JSON.
func MarshalJSONScenario(sc Scenario) ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// UnmarshalJSONScenario parses a scenario strictly — unknown fields are
// rejected at every depth rather than silently dropped, so a typoed key
// cannot masquerade as "configured" — filling unset fields from
// DefaultScenario(50, Regular) so partial files stay usable, and
// validates the result. A file that sets no Name takes the name
// DefaultScenario gives its NumNodes and Algorithm: it is named for what
// it runs, not for the defaults it was filled from.
func UnmarshalJSONScenario(data []byte) (Scenario, error) {
	sc := DefaultScenario(50, Regular)
	sc.Name = ""
	if err := sim.DecodeStrict(data, &sc); err != nil {
		return Scenario{}, fmt.Errorf("manetp2p: parsing scenario: %w", err)
	}
	if sc.Name == "" {
		sc.Name = DefaultScenario(sc.NumNodes, sc.Algorithm).Name
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// SaveScenario writes sc to path as JSON. A scenario LoadScenario would
// refuse is refused here, and the file is left as it was.
func SaveScenario(path string, sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	data, err := MarshalJSONScenario(sc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadScenario reads a scenario from a JSON file ("-" = stdin).
func LoadScenario(path string) (Scenario, error) {
	data, err := readPath(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("manetp2p: reading scenario: %w", err)
	}
	return UnmarshalJSONScenario(data)
}

// LoadFaultPlan reads a standalone fault-injection plan from a JSON
// file ("-" = stdin) and validates it, e.g. for cmd/p2psim -faults.
func LoadFaultPlan(path string) (FaultPlan, error) {
	var plan FaultPlan
	err := loadPlan(path, "fault plan", &plan)
	return plan, err
}

// LoadWorkloadPlan reads a standalone workload plan from a JSON file
// ("-" = stdin) and validates it, e.g. for cmd/p2psim -workload. Like
// fault plans, workload plans are hand-authored: times are float
// seconds and the arrival block carries a "process" tag (see
// internal/workload, json.go).
func LoadWorkloadPlan(path string) (*WorkloadPlan, error) {
	plan := new(WorkloadPlan)
	if err := loadPlan(path, "workload plan", plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// loadPlan reads, decodes and validates one hand-authored plan file.
func loadPlan(path, what string, plan interface{ Validate() error }) error {
	data, err := readPath(path)
	if err != nil {
		return fmt.Errorf("manetp2p: reading %s: %w", what, err)
	}
	if err := sim.DecodeStrict(data, plan); err != nil {
		return fmt.Errorf("manetp2p: parsing %s: %w", what, err)
	}
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("manetp2p: %s: %w", what, err)
	}
	return nil
}

// SaveWorkloadPlan writes a workload plan to path as JSON.
func SaveWorkloadPlan(path string, plan *WorkloadPlan) error {
	data, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readPath reads a file, with "-" meaning stdin.
func readPath(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
