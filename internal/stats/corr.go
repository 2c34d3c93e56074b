package stats

import (
	"math"
	"sort"
)

// Pearson returns the Pearson product-moment correlation of xs and ys.
// It panics when the lengths differ and returns NaN when either variable
// has zero variance or fewer than two points are given.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Ranks returns the fractional ranks of xs (average ranks for ties),
// 1-based, as used by the Spearman correlation.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Spearman returns the Spearman rank correlation between xs and ys — the
// statistic Table 2 of the paper reports for job length/size vs per-node
// power. Ties receive average ranks.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: length mismatch")
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// CorrResult pairs a correlation coefficient with its two-sided p-value
// against the null hypothesis of no association.
type CorrResult struct {
	R float64 // correlation coefficient
	P float64 // two-sided p-value
	N int     // sample size
}

// SpearmanTest computes the Spearman correlation together with the
// t-distribution approximation of its two-sided p-value,
// t = r*sqrt((n-2)/(1-r^2)) with n-2 degrees of freedom — the standard
// large-sample test used for Table 2.
func SpearmanTest(xs, ys []float64) CorrResult {
	r := Spearman(xs, ys)
	n := len(xs)
	return CorrResult{R: r, P: corrPValue(r, n), N: n}
}

// corrPValue returns the two-sided p-value for correlation r at sample
// size n via the Student-t approximation.
func corrPValue(r float64, n int) float64 {
	if math.IsNaN(r) || n < 3 {
		return math.NaN()
	}
	if math.Abs(r) >= 1 {
		return 0
	}
	t := r * math.Sqrt(float64(n-2)/(1-r*r))
	return 2 * StudentTSF(math.Abs(t), float64(n-2))
}
