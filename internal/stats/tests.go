package stats

import (
	"math"
	"sort"
)

// This file holds the two-sample Kolmogorov-Smirnov test, used to compare
// distributions across systems and to validate dataset round trips.

// KSResult holds a two-sample Kolmogorov-Smirnov test outcome.
type KSResult struct {
	D float64 // maximum ECDF distance
	P float64 // asymptotic p-value of the null "same distribution"
}

// KSTest runs the two-sample Kolmogorov-Smirnov test. It returns NaNs
// for empty samples.
func KSTest(a, b []float64) KSResult {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{D: math.NaN(), P: math.NaN()}
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var d float64
	i, j := 0, 0
	na, nb := float64(len(sa)), float64(len(sb))
	for i < len(sa) && j < len(sb) {
		// Step past ALL values equal to the smaller head so ties advance
		// both ECDFs together before the distance is measured.
		x := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] == x {
			i++
		}
		for j < len(sb) && sb[j] == x {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	ne := na * nb / (na + nb)
	return KSResult{D: d, P: ksPValue((math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d)}
}

// ksPValue evaluates the Kolmogorov distribution tail Q_KS(λ)
// (Numerical Recipes §14.3).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var sum float64
	a2 := -2 * lambda * lambda
	sign := 1.0
	var prev float64
	for k := 1; k <= 100; k++ {
		term := sign * 2 * math.Exp(a2*float64(k*k))
		sum += term
		if math.Abs(term) <= 1e-12*math.Abs(prev) || math.Abs(term) < 1e-300 {
			return clamp01(sum)
		}
		prev = term
		sign = -sign
	}
	return clamp01(sum)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
