package sim

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// draws returns the first n Int63 draws of each of k consecutive
// NewRand streams of a simulator seeded with seed.
func draws(seed int64, k, n int) [][]int64 {
	s := New(seed)
	out := make([][]int64, k)
	for i := range out {
		r := s.NewRand()
		for j := 0; j < n; j++ {
			out[i] = append(out[i], r.Int63())
		}
	}
	return out
}

func TestNewRandStreamsIndependent(t *testing.T) {
	a := draws(7, 4, 16)
	for i := 1; i < len(a); i++ {
		if slices.Equal(a[i-1], a[i]) {
			t.Errorf("streams %d and %d are equal", i-1, i)
		}
	}
	for i, b := range draws(7, 4, 16) {
		if !slices.Equal(a[i], b) {
			t.Errorf("stream %d differs between two simulators with root seed 7", i)
		}
	}
	defer func(was uint64) { salt = was }(salt)
	salt ^= 1
	for i, b := range draws(7, 4, 16) {
		if slices.Equal(a[i], b) {
			t.Errorf("stream %d is unchanged by the salt", i)
		}
	}
}

// A stream is a 48-byte *rand.Rand over a 16-byte PCG: set-up allocates
// two small objects per stream, not math/rand's 4.9 kB source. The
// quietest of five batches is judged, so that an allocation another
// goroutine of the test binary makes cannot fail it.
func TestNewRandAllocates64Bytes(t *testing.T) {
	const n = 1000
	s := New(1)
	sink := make([]*rand.Rand, n)
	objs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range sink {
			sink[i] = s.NewRand()
		}
		runtime.ReadMemStats(&after)
		objs = min(objs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if objs > 2*n || bytes > 64*n {
		t.Errorf("%d NewRand calls made %d allocations of %d bytes, want at most %d of %d", n, objs, bytes, 2*n, 64*n)
	}
}

func TestStreamDrawRanges(t *testing.T) {
	r := New(3).NewRand()
	top := false
	for i := 0; i < 10000; i++ {
		if v := r.Int63(); v < 0 {
			t.Fatalf("Int63 draw %d = %d, negative", i, v)
		}
		top = top || r.Uint64()>>63 == 1
	}
	if !top {
		t.Error("no Uint64 draw of 10000 set the top bit")
	}
}
