package stats

import (
	"math"
	"testing"

	"hpcpower/internal/rng"
)

func TestKSSameDistribution(t *testing.T) {
	src := rng.New(5)
	a := make([]float64, 600)
	b := make([]float64, 600)
	for i := range a {
		a[i] = src.Norm()
		b[i] = src.Norm()
	}
	res := KSTest(a, b)
	if res.P < 0.01 {
		t.Errorf("same distribution rejected: D=%v p=%v", res.D, res.P)
	}
}

func TestKSDifferentDistributions(t *testing.T) {
	src := rng.New(6)
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = src.Norm()
		b[i] = src.Norm() + 1 // shifted
	}
	res := KSTest(a, b)
	if res.P > 1e-6 {
		t.Errorf("shifted distribution not rejected: D=%v p=%v", res.D, res.P)
	}
	if res.D < 0.2 {
		t.Errorf("D = %v, want large", res.D)
	}
}

func TestKSEdgeCases(t *testing.T) {
	res := KSTest(nil, []float64{1})
	if !math.IsNaN(res.D) || !math.IsNaN(res.P) {
		t.Error("empty sample should give NaN")
	}
	// Identical samples: D=0, p=1.
	same := []float64{1, 2, 3}
	res = KSTest(same, same)
	if res.D != 0 || res.P != 1 {
		t.Errorf("identical samples: %+v", res)
	}
}

func TestKSPValueMonotone(t *testing.T) {
	prev := 1.0
	for _, l := range []float64{0.2, 0.5, 0.8, 1.2, 2, 3} {
		p := ksPValue(l)
		if p > prev+1e-12 {
			t.Errorf("ksPValue not decreasing at %v", l)
		}
		if p < 0 || p > 1 {
			t.Errorf("ksPValue out of range: %v", p)
		}
		prev = p
	}
	if ksPValue(0) != 1 {
		t.Error("ksPValue(0) != 1")
	}
}

func BenchmarkKSTest(b *testing.B) {
	src := rng.New(99)
	a := make([]float64, 5000)
	c := make([]float64, 5000)
	for i := range a {
		a[i] = src.Norm()
		c[i] = src.Norm() + 0.1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KSTest(a, c)
	}
}

func BenchmarkSpearman(b *testing.B) {
	src := rng.New(98)
	xs := make([]float64, 10000)
	ys := make([]float64, 10000)
	for i := range xs {
		xs[i] = src.Float64()
		ys[i] = xs[i] + src.Norm()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Spearman(xs, ys)
	}
}
