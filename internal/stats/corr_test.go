package stats

import (
	"math"
	"testing"
	"testing/quick"

	"hpcpower/internal/rng"
)

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	approx(t, "Pearson +1", Pearson(xs, ys), 1, 1e-12)
	neg := []float64{10, 8, 6, 4, 2}
	approx(t, "Pearson -1", Pearson(xs, neg), -1, 1e-12)
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("zero variance should give NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Error("n<2 should give NaN")
	}
}

func TestPearsonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Pearson([]float64{1, 2}, []float64{1})
}

func TestRanks(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ranks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// All equal: all ranks are the average.
	got = Ranks([]float64{5, 5, 5})
	for _, r := range got {
		if r != 2 {
			t.Errorf("tied ranks = %v", got)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Spearman is invariant to monotone transforms, unlike Pearson.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // strictly increasing
	}
	approx(t, "Spearman monotone", Spearman(xs, ys), 1, 1e-12)
	for i, x := range xs {
		ys[i] = -x * x * x
	}
	approx(t, "Spearman antitone", Spearman(xs, ys), -1, 1e-12)
}

func TestSpearmanKnownValue(t *testing.T) {
	// Hand-computed example with one swap: ranks x=1..5, y=(1,2,4,3,5)
	// d^2 sum = 2, rho = 1 - 6*2/(5*24) = 0.9.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 40, 30, 50}
	approx(t, "Spearman", Spearman(xs, ys), 0.9, 1e-12)
}

func TestSpearmanRangeProperty(t *testing.T) {
	f := func(pairsRaw []float64) bool {
		n := len(pairsRaw) / 2
		if n < 3 {
			return true
		}
		xs, ys := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			x, y := pairsRaw[2*i], pairsRaw[2*i+1]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = float64(i)
			}
			if math.IsNaN(y) || math.IsInf(y, 0) {
				y = float64(-i)
			}
			xs[i], ys[i] = x, y
		}
		r := Spearman(xs, ys)
		return math.IsNaN(r) || (r >= -1-1e-12 && r <= 1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpearmanTestSignificance(t *testing.T) {
	// Strongly correlated noisy data: significant positive correlation.
	src := rng.New(99)
	n := 500
	xs, ys := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = src.Float64() * 100
		ys[i] = xs[i] + src.Normal(0, 20)
	}
	res := SpearmanTest(xs, ys)
	if res.R < 0.5 {
		t.Errorf("R = %v, want strong positive", res.R)
	}
	if res.P > 1e-10 {
		t.Errorf("P = %v, want ~0", res.P)
	}
	if res.N != n {
		t.Errorf("N = %d", res.N)
	}

	// Independent data: p-value should usually be non-tiny.
	for i := 0; i < n; i++ {
		ys[i] = src.Float64()
	}
	res = SpearmanTest(xs, ys)
	if math.Abs(res.R) > 0.15 {
		t.Errorf("independent R = %v, want ~0", res.R)
	}
	if res.P < 0.001 {
		t.Errorf("independent P = %v, suspiciously significant", res.P)
	}
}

func TestCorrPValueEdge(t *testing.T) {
	if got := corrPValue(1, 100); got != 0 {
		t.Errorf("p(r=1) = %v", got)
	}
	if !math.IsNaN(corrPValue(math.NaN(), 100)) {
		t.Error("p(NaN) should be NaN")
	}
	if !math.IsNaN(corrPValue(0.5, 2)) {
		t.Error("p(n=2) should be NaN")
	}
}
