package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1, 1) = x (uniform distribution).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		approx(t, "I_x(1,1)", RegIncBeta(1, 1, x), x, 1e-12)
	}
	// I_x(2, 2) = 3x^2 - 2x^3.
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		want := 3*x*x - 2*x*x*x
		approx(t, "I_x(2,2)", RegIncBeta(2, 2, x), want, 1e-10)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	approx(t, "symmetry", RegIncBeta(3.5, 1.25, 0.4), 1-RegIncBeta(1.25, 3.5, 0.6), 1e-10)
	// I_0.5(a, a) = 0.5 by symmetry.
	for _, a := range []float64{0.5, 1, 2, 10} {
		approx(t, "half", RegIncBeta(a, a, 0.5), 0.5, 1e-10)
	}
}

func TestRegIncBetaDomain(t *testing.T) {
	bad := []struct{ a, b, x float64 }{
		{-1, 1, 0.5}, {1, 0, 0.5}, {1, 1, -0.1}, {1, 1, 1.1}, {1, 1, math.NaN()},
	}
	for _, c := range bad {
		if !math.IsNaN(RegIncBeta(c.a, c.b, c.x)) {
			t.Errorf("RegIncBeta(%v,%v,%v) should be NaN", c.a, c.b, c.x)
		}
	}
}

func TestRegIncBetaMonotoneProperty(t *testing.T) {
	f := func(aRaw, bRaw, x1Raw, x2Raw float64) bool {
		a := 0.1 + math.Abs(math.Mod(aRaw, 20))
		b := 0.1 + math.Abs(math.Mod(bRaw, 20))
		x1 := math.Abs(math.Mod(x1Raw, 1))
		x2 := math.Abs(math.Mod(x2Raw, 1))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		v1, v2 := RegIncBeta(a, b, x1), RegIncBeta(a, b, x2)
		return v1 >= -1e-12 && v2 <= 1+1e-12 && v1 <= v2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStudentTCDF(t *testing.T) {
	// Symmetry at 0.
	for _, df := range []float64{1, 5, 30, 200} {
		approx(t, "t cdf 0", StudentTCDF(0, df), 0.5, 1e-12)
	}
	// t(1) is Cauchy: CDF(1) = 3/4.
	approx(t, "cauchy", StudentTCDF(1, 1), 0.75, 1e-9)
	// Known quantile: for df=10, P(T <= 1.812) ≈ 0.95.
	approx(t, "t10", StudentTCDF(1.8125, 10), 0.95, 1e-3)
	// Large df approaches the normal distribution.
	approx(t, "t->normal", StudentTCDF(1.96, 1e6), 0.5*math.Erfc(-1.96/math.Sqrt2), 1e-4)
	// Symmetry: F(-t) = 1 - F(t).
	approx(t, "t symmetry", StudentTCDF(-2.5, 7), 1-StudentTCDF(2.5, 7), 1e-10)
	// Infinities.
	approx(t, "t +inf", StudentTCDF(math.Inf(1), 4), 1, 0)
	approx(t, "t -inf", StudentTCDF(math.Inf(-1), 4), 0, 0)
	if !math.IsNaN(StudentTCDF(1, 0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestStudentTSF(t *testing.T) {
	approx(t, "SF", StudentTSF(2, 10), 1-StudentTCDF(2, 10), 1e-12)
}
