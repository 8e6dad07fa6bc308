// Package stats aggregates replication results the way the paper's
// figures do: means with 95% confidence intervals over repetitions, and
// per-node message-count series sorted in decreasing order (the x-axis
// of Figures 7–12 is "nodes, decreasingly ordered by # of received
// messages").
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds simple descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
}

// Summarize computes descriptive statistics; an empty sample yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	var a Acc
	for _, x := range xs {
		a.Add(x)
	}
	for _, x := range xs {
		a.Dev(x)
	}
	return a.Summary()
}

// Acc computes a Summary in two passes over a sample it does not hold:
// Add every value, then Dev every value in the same order. The sum, the
// minimum and maximum and the squared deviations are accumulated in
// that order, so the Summary is bit for bit the one Summarize returns
// for the values as one slice, which is how Summarize computes it.
type Acc struct {
	s       Summary
	sum, ss float64
}

// Add takes x in the first pass.
func (a *Acc) Add(x float64) {
	if a.s.N == 0 {
		a.s.Min, a.s.Max = x, x
	}
	a.s.N++
	a.sum += x
	if x < a.s.Min {
		a.s.Min = x
	}
	if x > a.s.Max {
		a.s.Max = x
	}
	a.s.Mean = a.sum / float64(a.s.N)
}

// Dev takes x in the second pass, after every Add.
func (a *Acc) Dev(x float64) {
	d := x - a.s.Mean
	a.ss += d * d
}

// Summary returns the statistics of the values taken.
func (a *Acc) Summary() Summary {
	s := a.s
	if s.N > 1 {
		s.StdDev = math.Sqrt(a.ss / float64(s.N-1))
	}
	return s
}

// CI95 returns the half-width of the 95% confidence interval for the
// mean, using Student's t quantiles (two-sided, df = N-1). Zero for
// samples of size < 2.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return tQuantile975(s.N-1) * s.StdDev / math.Sqrt(float64(s.N))
}

// String renders "mean ± ci".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean, s.CI95())
}

// tQuantile975 returns the 0.975 quantile of Student's t distribution
// with df degrees of freedom (exact table for small df, asymptotic
// normal beyond).
func tQuantile975(df int) float64 {
	table := []float64{
		0, // df = 0 unused
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
		2.040, 2.037, 2.035, 2.032, 2.030, 2.028, 2.026, 2.024, 2.023, 2.021,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.960
}

// SignTest returns the exact one-sided p-value of a paired sign test:
// the probability that a fair coin shows heads at least wins times in n
// flips, which is how often one side would win at least wins of n
// paired trials (ties dropped from n) if neither side were better. Six
// wins of six give 1/64. It panics unless 0 <= wins <= n <= 1000
// (2^-1000 still fits a float64).
func SignTest(wins, n int) float64 {
	if wins < 0 || wins > n || n > 1000 {
		// Unreachable from input: callers count wins over the pairs they ran.
		panic(fmt.Sprintf("stats: SignTest(%d, %d)", wins, n))
	}
	p, term := 0.0, math.Pow(2, -float64(n)) // C(n, 0) / 2^n
	for k := 0; k <= n; k++ {
		if k >= wins {
			p += term
		}
		term = term * float64(n-k) / float64(k+1) // C(n, k+1) / 2^n
	}
	return p
}

// DescendingSeries returns one replication's per-node counts sorted in
// decreasing order — the transform the paper applies before plotting
// Figures 7–12. counts is left as it is.
func DescendingSeries(counts []float64) []float64 {
	out := append([]float64(nil), counts...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// MeanSeries averages several equally-ranked series element-wise: series
// from different replications are first sorted descending, then rank r
// of the result is the mean of rank r across replications. Series of
// unequal length are truncated to the shortest.
func MeanSeries(series [][]float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	n := len(series[0])
	for _, s := range series {
		if len(s) < n {
			n = len(s)
		}
	}
	out := make([]float64, n)
	for r := 0; r < n; r++ {
		sum := 0.0
		for _, s := range series {
			sum += s[r]
		}
		out[r] = sum / float64(len(series))
	}
	return out
}
