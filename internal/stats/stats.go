// Package stats implements the statistical machinery the paper's analysis
// relies on: descriptive statistics, empirical distributions (PDF/CDF),
// rank correlation with significance testing, and concentration (Lorenz)
// analysis — all from scratch on the standard library.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (denominator n), or NaN
// for an empty slice. The paper reports population moments over complete
// job sets, so population (not sample) variance is the default here.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// CV returns the coefficient of variation (std/mean) of xs as a fraction.
// It returns NaN for an empty slice or zero mean.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return Std(xs) / m
}

// Median returns the median of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the default of R and
// NumPy). It returns NaN for an empty slice and panics for q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of range")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile on an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	i := int(math.Floor(h))
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := h - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// Summary bundles the descriptive statistics reported throughout the paper.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	Median        float64
	P05, P25      float64
	P75, P95, P99 float64
	CVPercent     float64 // std as % of mean
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		s.Mean, s.Std, s.Min, s.Max, s.Median = nan, nan, nan, nan, nan
		s.P05, s.P25, s.P75, s.P95, s.P99, s.CVPercent = nan, nan, nan, nan, nan, nan
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Mean = Mean(xs)
	s.Std = Std(xs)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = quantileSorted(sorted, 0.5)
	s.P05 = quantileSorted(sorted, 0.05)
	s.P25 = quantileSorted(sorted, 0.25)
	s.P75 = quantileSorted(sorted, 0.75)
	s.P95 = quantileSorted(sorted, 0.95)
	s.P99 = quantileSorted(sorted, 0.99)
	if s.Mean != 0 {
		s.CVPercent = 100 * s.Std / s.Mean
	} else {
		s.CVPercent = math.NaN()
	}
	return s
}
