package p2p

import (
	"fmt"
	"math/rand"
)

// FileConfig describes the shared-content model of §7.2: NumFiles
// distinct searchable files distributed over the servents so that file
// rank i (0-based) is held by MaxFreq/(i+1) of the nodes — the Zipf law
// with the paper's MAXFREQ = 40%.
type FileConfig struct {
	NumFiles int     // distinct searchable files (20)
	MaxFreq  float64 // fraction of nodes holding the most popular file (0.40)
}

// DefaultFileConfig returns the paper's content parameters.
func DefaultFileConfig() FileConfig {
	return FileConfig{NumFiles: 20, MaxFreq: 0.40}
}

// maxFiles bounds the catalogue: every member holds one flag per file.
const maxFiles = 1 << 16

// Validate reports a descriptive error for inconsistent parameters.
func (c FileConfig) Validate() error {
	switch {
	case c.NumFiles < 1 || c.NumFiles > maxFiles:
		return fmt.Errorf("p2p: NumFiles %d outside [1, %d]", c.NumFiles, maxFiles)
	case c.MaxFreq <= 0 || c.MaxFreq > 1:
		return fmt.Errorf("p2p: MaxFreq %v outside (0,1]", c.MaxFreq)
	}
	return nil
}

// Frequency returns the fraction of servents expected to hold file rank
// (0-based): MaxFreq / (rank+1).
func (c FileConfig) Frequency(rank int) float64 {
	return c.MaxFreq / float64(rank+1)
}

// PlaceFiles assigns files to each of n servents: servent i holds file r
// with independent probability Frequency(r). The return value indexes
// holdings as held[servent][rank]. Every file is guaranteed at least one
// holder (re-rolled onto a random servent if the draw left it orphaned),
// so every query target exists somewhere in the network.
func (c FileConfig) PlaceFiles(n int, rng *rand.Rand) [][]bool {
	// Unreachable from input: manet.Build runs Scenario.Validate, which
	// runs FileConfig.Validate, before it places files.
	if err := c.Validate(); err != nil {
		panic(err)
	}
	held := make([][]bool, n)
	for i := range held {
		held[i] = make([]bool, c.NumFiles)
	}
	for r := 0; r < c.NumFiles; r++ {
		freq := c.Frequency(r)
		holders := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < freq {
				held[i][r] = true
				holders++
			}
		}
		if holders == 0 && n > 0 {
			held[rng.Intn(n)][r] = true
		}
	}
	return held
}
