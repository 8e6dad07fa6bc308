package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("summary = %+v, want N=8 Mean=5", s)
	}
	if math.Abs(s.StdDev-2.138) > 0.01 {
		t.Errorf("StdDev = %v, want ~2.138", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", s.Min, s.Max)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.StdDev != 0 || s.CI95() != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestCI95KnownValue(t *testing.T) {
	// n=5, sd=1: CI = 2.776 * 1/sqrt(5) = 1.2415.
	s := Summary{N: 5, StdDev: 1}
	if got := s.CI95(); math.Abs(got-1.2415) > 0.001 {
		t.Errorf("CI95 = %v, want 1.2415", got)
	}
	// Large n approaches the normal quantile.
	s = Summary{N: 10000, StdDev: 1}
	if got := s.CI95(); math.Abs(got-1.96/100) > 0.0005 {
		t.Errorf("large-n CI95 = %v, want ~0.0196", got)
	}
}

func TestTQuantileMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df < 60; df++ {
		q := tQuantile975(df)
		if q > prev {
			t.Fatalf("t quantile not nonincreasing at df=%d", df)
		}
		prev = q
	}
	if tQuantile975(33) != 2.035 {
		t.Errorf("table lookup broken for df=33")
	}
}

func TestDescendingSeries(t *testing.T) {
	got := DescendingSeries([]uint64{3, 9, 1, 7})
	want := []float64{9, 7, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DescendingSeries = %v, want %v", got, want)
		}
	}
}

func TestMeanSeries(t *testing.T) {
	got := MeanSeries([][]float64{{10, 6, 2}, {20, 8, 4}})
	want := []float64{15, 7, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MeanSeries = %v, want %v", got, want)
		}
	}
	// Unequal lengths truncate.
	got = MeanSeries([][]float64{{1, 2, 3}, {5, 6}})
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("truncated MeanSeries = %v, want [3 4]", got)
	}
	if MeanSeries(nil) != nil {
		t.Error("MeanSeries(nil) != nil")
	}
}

// Property: Summarize is invariant under permutation, and mean lies in
// [min, max].
func TestQuickSummarizeInvariants(t *testing.T) {
	f := func(xs []float64, seed int64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		a := Summarize(clean)
		shuffled := append([]float64(nil), clean...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		b := Summarize(shuffled)
		const eps = 1e-6
		return math.Abs(a.Mean-b.Mean) < eps*(1+math.Abs(a.Mean)) &&
			a.Mean >= a.Min-eps && a.Mean <= a.Max+eps &&
			a.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: DescendingSeries output is sorted and is a permutation of
// the input.
func TestQuickDescendingSeries(t *testing.T) {
	f := func(xs []uint64) bool {
		got := DescendingSeries(xs)
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(got))) {
			return false
		}
		if len(got) != len(xs) {
			return false
		}
		want := make([]float64, len(xs))
		for i, x := range xs {
			want[i] = float64(x)
		}
		sort.Float64s(want)
		check := append([]float64(nil), got...)
		sort.Float64s(check)
		for i := range want {
			if want[i] != check[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		wins, n int
		want    float64
	}{
		{0, 0, 1},
		{0, 6, 1},
		{6, 6, 1.0 / 64},
		{5, 6, 7.0 / 64},
		{3, 6, 42.0 / 64},
		{5, 5, 1.0 / 32},
		{9, 10, 11.0 / 1024},
		{1, 1, 0.5},
		{33, 33, math.Pow(2, -33)},
		{17, 33, 0.5},
		{1000, 1000, math.Pow(2, -1000)},
	} {
		if got := SignTest(c.wins, c.n); math.Abs(got-c.want) > 1e-12*c.want {
			t.Errorf("SignTest(%d, %d) = %v, want %v", c.wins, c.n, got, c.want)
		}
	}
	for _, bad := range [][2]int{{-1, 3}, {4, 3}, {1001, 1001}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SignTest(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			SignTest(bad[0], bad[1])
		}()
	}
}
