package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Sum", Sum(xs), 40, 1e-12)
	approx(t, "Mean", Mean(xs), 5, 1e-12)
	approx(t, "Variance", Variance(xs), 4, 1e-12)
	approx(t, "Std", Std(xs), 2, 1e-12)
	approx(t, "Min", Min(xs), 2, 0)
	approx(t, "Max", Max(xs), 9, 0)
	approx(t, "CV", CV(xs), 0.4, 1e-12)
}

func TestEmptyInputs(t *testing.T) {
	for name, f := range map[string]func([]float64) float64{
		"Mean": Mean, "Variance": Variance, "Std": Std, "Min": Min,
		"Max": Max, "Median": Median, "CV": CV,
	} {
		if !math.IsNaN(f(nil)) {
			t.Errorf("%s(nil) is not NaN", name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, "Q0", Quantile(xs, 0), 1, 0)
	approx(t, "Q1", Quantile(xs, 1), 5, 0)
	approx(t, "Median", Quantile(xs, 0.5), 3, 0)
	approx(t, "Q0.25", Quantile(xs, 0.25), 2, 1e-12)
	// Interpolation between order statistics.
	approx(t, "Q0.1", Quantile([]float64{10, 20}, 0.1), 11, 1e-12)
	// Single element.
	approx(t, "single", Quantile([]float64{7}, 0.3), 7, 0)
	// Input is not mutated.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Errorf("Quantile mutated input: %v", ys)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantile out of range did not panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp to a sane magnitude: quantile interpolation on values
			// near ±MaxFloat64 legitimately overflows to ±Inf.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				v = 0
			}
			xs[i] = v
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(xs)
	if s.N != 10 {
		t.Errorf("N = %d", s.N)
	}
	approx(t, "Mean", s.Mean, 5.5, 1e-12)
	approx(t, "Median", s.Median, 5.5, 1e-12)
	approx(t, "Min", s.Min, 1, 0)
	approx(t, "Max", s.Max, 10, 0)
	if s.P25 >= s.P75 || s.P75 >= s.P95 || s.P95 > s.P99 {
		t.Errorf("percentile ordering violated: %+v", s)
	}
	approx(t, "CVPercent", s.CVPercent, 100*Std(xs)/5.5, 1e-9)

	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Errorf("empty summary = %+v", empty)
	}
}

// TestAccumulatorMatchesBatch: the moment accumulator answers what the
// batch functions do over the same readings.
func TestAccumulatorMatchesBatch(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var a Moments
	for _, x := range xs {
		a.Add(x)
	}
	if a.N != int64(len(xs)) {
		t.Errorf("N = %d", a.N)
	}
	approx(t, "acc mean", a.Mean(), Mean(xs), 1e-12)
	approx(t, "acc var", a.Variance(), Variance(xs), 1e-12)
	approx(t, "acc std", a.Std(), Std(xs), 1e-12)
	approx(t, "acc min", a.Min, 1, 0)
	approx(t, "acc max", a.Max, 9, 0)
	approx(t, "acc sum", a.Total(), Sum(xs), 1e-12)
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Moments
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Variance()) {
		t.Error("empty accumulator should report a NaN mean and variance")
	}
	if a.Total() != 0 || a.N != 0 {
		t.Error("empty accumulator sum/n nonzero")
	}
}

// TestAccumulatorMerge: a moment accumulator merged from two halves is
// the one the whole stream builds, and merging an empty one is a no-op in
// both directions.
func TestAccumulatorMerge(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	var whole, left, right, empty Moments
	for _, x := range xs {
		whole.Add(x)
	}
	for _, x := range xs[:3] {
		left.Add(x)
	}
	for _, x := range xs[3:] {
		right.Add(x)
	}
	left.Merge(&right)
	if left != whole {
		t.Errorf("merged %+v, whole %+v", left, whole)
	}
	approx(t, "merge mean", left.Mean(), Mean(xs), 0)
	approx(t, "merge var", left.Variance(), Variance(xs), 1e-12)
	before := left
	left.Merge(&empty)
	if left != before {
		t.Error("merging empty changed state")
	}
	empty.Merge(&left)
	if empty != whole {
		t.Error("merging into empty is not a copy")
	}
}

// TestAccumulatorMergeProperty: any two streams merged equal their
// concatenation, to the bit.
func TestAccumulatorMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		var whole, pa, pb Moments
		for _, x := range a {
			whole.Add(x)
			pa.Add(x)
		}
		for _, x := range b {
			whole.Add(x)
			pb.Add(x)
		}
		pa.Merge(&pb)
		return pa == whole
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
