package sim

import (
	"math/rand"
	randv2 "math/rand/v2"
	"strconv"
)

// Generator names the generator behind every stream NewRand hands out
// and how its seeds are derived. A checkpoint records it, so that
// replications drawn from another generator are never pooled with this
// binary's.
const Generator = "pcg-dxsm/splitmix64"

// streamSalt is set only by a salted test build, `go test
// -ldflags=-X=manetp2p/internal/sim.streamSalt=N` (./check.sh salt); no
// Config field or flag reaches it. A non-zero salt is XORed into the
// first seed word of every stream derived below: an equally valid world,
// in which a test of a property must still pass.
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
	src := new(pcgSource)
	hi := splitmix64(&s.state) ^ salt
	src.PCG.Seed(hi, splitmix64(&s.state))
	return rand.New(src)
}

// pcgSource adapts the 16-byte math/rand/v2 PCG to math/rand's Source64,
// so every stream keeps the *rand.Rand API without math/rand's 4.9 kB
// source and its seeding cost.
type pcgSource struct{ randv2.PCG }

func (p *pcgSource) Int63() int64 { return int64(p.Uint64() >> 1) }

// Seed completes math/rand.Source; no simulator code reseeds a stream.
func (p *pcgSource) Seed(seed int64) { p.PCG.Seed(uint64(seed), 0) }

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

// ExpDuration returns an exponential duration with the given mean,
// clamped to at least one second so a dwell or an uptime never
// collapses into a storm of sub-second events.
func ExpDuration(rng *rand.Rand, mean Time) Time {
	d := FromSeconds(rng.ExpFloat64() * mean.Seconds())
	if d < Second {
		d = Second
	}
	return d
}
