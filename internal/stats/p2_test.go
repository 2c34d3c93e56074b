package stats

import (
	"math"
	"sort"
	"testing"

	"hpcpower/internal/rng"
)

func TestP2Validation(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewP2Quantile(p); err == nil {
			t.Errorf("NewP2Quantile(%v) accepted", p)
		}
	}
}

func TestP2SmallSamples(t *testing.T) {
	q, err := NewP2Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(q.Value()) {
		t.Error("empty estimator should be NaN")
	}
	q.Add(3)
	if q.Value() != 3 {
		t.Errorf("single-value estimate = %v", q.Value())
	}
	q.Add(1)
	q.Add(2)
	if got := q.Value(); math.Abs(got-2) > 1e-12 {
		t.Errorf("3-value median = %v", got)
	}
}

func TestP2AgainstExactQuantiles(t *testing.T) {
	src := rng.New(12)
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		q, err := NewP2Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		const n = 50000
		xs := make([]float64, n)
		for i := range xs {
			v := src.Normal(100, 15)
			xs[i] = v
			q.Add(v)
		}
		sort.Float64s(xs)
		exact := quantileSorted(xs, p)
		got := q.Value()
		// P² converges to within a small relative error on smooth
		// distributions.
		if math.Abs(got-exact)/math.Abs(exact) > 0.02 {
			t.Errorf("p=%v: P² = %v, exact = %v", p, got, exact)
		}
		if q.n != n {
			t.Errorf("N = %d", q.n)
		}
	}
}

func TestP2SkewedDistribution(t *testing.T) {
	src := rng.New(13)
	q, _ := NewP2Quantile(0.95)
	const n = 50000
	xs := make([]float64, n)
	for i := range xs {
		v := src.Exp(10)
		xs[i] = v
		q.Add(v)
	}
	sort.Float64s(xs)
	exact := quantileSorted(xs, 0.95)
	if math.Abs(q.Value()-exact)/exact > 0.05 {
		t.Errorf("skewed p95: P² = %v, exact = %v", q.Value(), exact)
	}
}

func TestP2MonotoneMarkers(t *testing.T) {
	src := rng.New(14)
	q, _ := NewP2Quantile(0.5)
	for i := 0; i < 10000; i++ {
		q.Add(src.Float64())
		if q.n >= 5 {
			for j := 1; j < 5; j++ {
				if q.heights[j] < q.heights[j-1]-1e-9 {
					t.Fatalf("marker heights not monotone at %d: %v", i, q.heights)
				}
			}
		}
	}
}
