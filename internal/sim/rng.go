package sim

import (
	"math/rand"
	"strconv"
)

// streamSalt is set only by a salted test build, `go test
// -ldflags=-X=manetp2p/internal/sim.streamSalt=N` (./check.sh salt); no
// Config field or flag reaches it. A non-zero salt is XORed into every
// stream seed derived below: an equally valid world, in which a test of
// a property must still pass.
var streamSalt string

var salt = func() uint64 {
	n, err := strconv.ParseUint(streamSalt, 10, 64)
	if err != nil && streamSalt != "" {
		// Unreachable from input: only a -ldflags=-X build sets streamSalt.
		panic("sim: streamSalt " + strconv.Quote(streamSalt) + " is not an unsigned integer")
	}
	return n
}()

// Salted reports whether the build is salted. Tests that pin the bytes
// a seed produced skip when it is.
func Salted() bool { return salt != 0 }

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is the standard SplitMix64 generator, used here only to derive
// independent seeds for per-component random streams from one run seed.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rngSource derives deterministic child seeds from a root seed.
type rngSource struct {
	state uint64
}

func newRNGSource(seed int64) *rngSource {
	return &rngSource{state: uint64(seed)}
}

// next returns a fresh *rand.Rand whose seed is derived from the root
// seed. Streams handed out in the same order are identical across runs.
func (s *rngSource) next() *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(&s.state) ^ salt)))
}

// UniformDuration returns a duration drawn uniformly from [lo, hi].
// It panics if hi < lo.
func UniformDuration(rng *rand.Rand, lo, hi Time) Time {
	if hi < lo {
		// Unreachable from input: every bound pair is validated ordered (Params.Validate's query gaps and
		// JoinStaggerMax, Scenario.Validate's MaxPause, workload Arrival.Validate's GapMin/GapMax).
		panic("sim: UniformDuration with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + Time(rng.Int63n(int64(hi-lo)+1))
}
