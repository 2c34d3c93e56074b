package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	if e.N() != 4 {
		t.Fatalf("N = %d", e.N())
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0.25},
		{1.5, 0.25},
		{2, 0.75},
		{3, 1},
		{99, 1},
	}
	for _, c := range cases {
		if got := e.Eval(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := e.FractionBelow(2); got != 0.25 {
		t.Errorf("FractionBelow(2) = %v", got)
	}
	if got := e.FractionAtOrAbove(2); got != 0.75 {
		t.Errorf("FractionAtOrAbove(2) = %v", got)
	}
	if got := e.Mean(); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if !math.IsNaN(e.Eval(1)) || !math.IsNaN(e.Quantile(0.5)) {
		t.Error("empty ECDF should produce NaN")
	}
	if pts := e.Points(5); pts != nil {
		t.Errorf("empty Points = %v", pts)
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	e := NewECDF(xs)
	if got := e.Quantile(0); got != 0 {
		t.Errorf("Q0 = %v", got)
	}
	if got := e.Quantile(1); got != 9 {
		t.Errorf("Q1 = %v", got)
	}
	approx(t, "Q0.5", e.Quantile(0.5), 4.5, 1e-12)
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		ps := append([]float64(nil), probe...)
		sort.Float64s(ps)
		prev := -1.0
		for _, p := range ps {
			if math.IsNaN(p) {
				continue
			}
			v := e.Eval(p)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDFPoints(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	pts := e100Points(t, xs, 10)
	if len(pts) != 10 {
		t.Fatalf("len(points) = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Errorf("points not monotone at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("final point Y = %v, want 1", pts[len(pts)-1].Y)
	}
	// n larger than the sample yields one point per sample.
	all := e100Points(t, xs, 1000)
	if len(all) != 100 {
		t.Errorf("oversampled points = %d", len(all))
	}
}

func e100Points(t *testing.T, xs []float64, n int) []Point {
	t.Helper()
	return NewECDF(xs).Points(n)
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.5, 1.5, 1.6, 2.5, -10, 99}
	h := NewHistogram(xs, 0, 3, 3)
	if h.Total != 6 {
		t.Fatalf("Total = %d", h.Total)
	}
	// -10 clamps into bin 0, 99 clamps into bin 2.
	if h.Counts[0] != 2 || h.Counts[1] != 2 || h.Counts[2] != 2 {
		t.Errorf("Counts = %v", h.Counts)
	}
	approx(t, "BinWidth", h.BinWidth(), 1, 1e-12)
	approx(t, "BinCenter(1)", h.BinCenter(1), 1.5, 1e-12)
	// Densities integrate to 1.
	var integral float64
	for i := range h.Counts {
		integral += h.Density(i) * h.BinWidth()
	}
	approx(t, "integral", integral, 1, 1e-12)
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(nil, 0, 1, 0) },
		func() { NewHistogram(nil, 1, 1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramDensityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		h := NewHistogram(xs, -1, 1, 7)
		var integral float64
		for i := range h.Counts {
			integral += h.Density(i) * h.BinWidth()
		}
		return math.Abs(integral-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPDFPoints(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1.5, 2.5}, 0, 3, 3)
	pts := h.PDFPoints()
	if len(pts) != 3 {
		t.Fatalf("PDFPoints len = %d", len(pts))
	}
	for i, p := range pts {
		approx(t, "pdf x", p.X, h.BinCenter(i), 1e-12)
		approx(t, "pdf y", p.Y, h.Density(i), 1e-12)
	}
}
