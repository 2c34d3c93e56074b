package stats

import "math"

// This file implements the special functions needed for significance
// testing from scratch: the regularized incomplete beta function (via the
// Lentz continued-fraction expansion) and the Student-t distribution built
// on top of it. math.Lgamma from the standard library provides log-gamma.

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1]. It returns NaN outside the domain.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case a <= 0 || b <= 0 || x < 0 || x > 1 || math.IsNaN(x):
		return math.NaN()
	case x == 0:
		return 0
	case x == 1:
		return 1
	}
	// Prefactor x^a (1-x)^b / (a B(a,b)) in log space.
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lbeta)
	// Use the symmetry relation to keep the continued fraction convergent.
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// using the modified Lentz algorithm (Numerical Recipes §6.4).
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	return h // converged as far as it will; accuracy is still ~1e-10
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// StudentTCDF returns P(T <= t) for a Student-t variable with df degrees
// of freedom.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentTSF returns the survival function P(T > t) of the Student-t
// distribution with df degrees of freedom.
func StudentTSF(t, df float64) float64 { return 1 - StudentTCDF(t, df) }
