package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample. The
// paper presents most of its findings as CDF plots (Figs. 7, 9, 12, 14, 15);
// ECDF is the structure those figures are computed from.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied and sorted.
func NewECDF(xs []float64) *ECDF {
	return NewECDFInPlace(append([]float64(nil), xs...))
}

// NewECDFInPlace builds an ECDF that takes ownership of xs: the slice
// is sorted in place and backs the ECDF, so the caller must neither
// modify nor reuse it while the ECDF is in use. For value sets too
// large to copy (a fleet-wide sample distribution).
func NewECDFInPlace(xs []float64) *ECDF {
	SortFloat64s(xs)
	return &ECDF{sorted: xs}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Eval returns P(X <= x), the fraction of the sample at or below x.
func (e *ECDF) Eval(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// Index of the first element > x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile of the sample (type-7 interpolation).
func (e *ECDF) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of range")
	}
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return quantileSorted(e.sorted, q)
}

// Mean returns the sample mean.
func (e *ECDF) Mean() float64 { return Mean(e.sorted) }

// FractionBelow returns P(X < x) strictly.
func (e *ECDF) FractionBelow(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return float64(sort.SearchFloat64s(e.sorted, x)) / float64(len(e.sorted))
}

// FractionAtOrAbove returns P(X >= x).
func (e *ECDF) FractionAtOrAbove(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return 1 - e.FractionBelow(x)
}

// Points returns up to n (x, F(x)) pairs evenly spaced in rank order —
// the series that a CDF figure plots. For n >= sample size it returns one
// point per sample.
func (e *ECDF) Points(n int) []Point {
	m := len(e.sorted)
	if m == 0 {
		return nil
	}
	if n <= 0 || n > m {
		n = m
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		// rank index spread over the full sample
		idx := i * (m - 1) / maxInt(n-1, 1)
		pts = append(pts, Point{
			X: e.sorted[idx],
			Y: float64(idx+1) / float64(m),
		})
	}
	return pts
}

// Point is a single (x, y) coordinate of a figure series.
type Point struct{ X, Y float64 }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Histogram is a fixed-width binned density over a sample — the structure
// behind the paper's PDF plots (Figs. 3 and 10).
type Histogram struct {
	Lo, Hi float64 // range covered
	Counts []int   // per-bin counts
	Total  int     // total samples (including clamped outliers)
}

// NewHistogram bins xs into bins equal-width bins over [lo, hi]. Samples
// outside the range are clamped into the first/last bin so the histogram
// always accounts for the whole sample. It panics for bins <= 0 or hi <= lo.
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: non-positive bin count")
	}
	if hi <= lo {
		panic("stats: invalid histogram range")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
		h.Total++
	}
	return h
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Density returns the normalized density of bin i such that the densities
// integrate to 1 over [Lo, Hi].
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / (float64(h.Total) * h.BinWidth())
}

// PDFPoints returns the (bin center, density) series of the histogram.
func (h *Histogram) PDFPoints() []Point {
	pts := make([]Point, len(h.Counts))
	for i := range h.Counts {
		pts[i] = Point{X: h.BinCenter(i), Y: h.Density(i)}
	}
	return pts
}
