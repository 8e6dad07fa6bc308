package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// environment records where the numbers were measured, so a reader can
// tell a slow machine or a busy one from a regression.
type environment struct {
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	LoadAvgStart string `json:"loadavg_start"`
	LoadAvgEnd   string `json:"loadavg_end"`
}

func readEnvironment() environment {
	return environment{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		LoadAvgStart: loadAvg(),
	}
}

// loadAvg returns /proc/loadavg, or "" where there is none.
func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// overloaded reports whether a 1-minute load reading exceeds the CPU
// count: something else was competing for the machine.
func (e environment) overloaded() bool {
	for _, l := range []string{e.LoadAvgStart, e.LoadAvgEnd} {
		first, _, _ := strings.Cut(l, " ")
		if v, err := strconv.ParseFloat(first, 64); err == nil && v > float64(e.NumCPU) {
			return true
		}
	}
	return false
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
