package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets spans 100µs to 10s exponentially — wide enough
// for an in-memory ingest ack (~hundreds of µs) and a retry storm on a
// faulting network (~seconds) on the same axis.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets suits count-valued distributions (group-commit batch
// sizes, queue depths): powers of two up to 4096.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Histogram is a fixed-bucket histogram safe for concurrent use.
// Observe is lock-free: one binary search over the (immutable) bounds,
// one atomic bucket increment, one CAS loop for the float sum, and an
// atomic max — no mutex on the hot path, so concurrent observers never
// serialize. Quantiles are estimated at read time by linear
// interpolation inside the owning bucket.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit at the end
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
	max    atomic.Uint64 // float64 bits, CAS-maxed
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (a final +Inf bucket is implicit). Panics on empty or
// unsorted bounds — a construction-time wiring bug.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	return &Histogram{bounds: own, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Histogram registers and returns a histogram; it is rendered as the
// Prometheus name_bucket{le=...}/name_sum/name_count triplet.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.HistogramHelp(name, "", bounds)
}

// HistogramHelp is Histogram with a # HELP line ahead of the family, if
// help is not empty.
func (r *Registry) HistogramHelp(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, func(e *Exposition) {
		if help != "" {
			e.Help(name, help)
		}
		e.Histogram(name, h)
	})
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Branchless-ish lower_bound: first bucket whose bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= bitsFloat(old) {
			break
		}
		if h.max.CompareAndSwap(old, floatBits(v)) {
			break
		}
	}
}

// ObserveDuration records a time.Duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return bitsFloat(h.sum.Load()) }

// Max returns the largest observed value (0 with no observations).
func (h *Histogram) Max() float64 { return bitsFloat(h.max.Load()) }

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) by linear interpolation
// within the bucket holding the target rank. Values in the +Inf bucket
// are reported as the highest finite bound (the estimate saturates).
// Returns 0 with no observations.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) { // +Inf bucket: saturate
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + frac*(upper-lower)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshot returns cumulative bucket counts (per exposed le= bound,
// +Inf last), total count, and sum. Reads are atomic per bucket; a
// scrape racing Observe may see a value's bucket increment without its
// sum add (or vice versa) — tolerated, as in every atomic-based
// Prometheus client.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, running, h.Sum()
}

// Histogram emits one histogram family: ascending _bucket{le=...}
// series (cumulative, ending in le="+Inf"), then _sum and _count.
func (e *Exposition) Histogram(name string, h *Histogram) {
	e.family(name, "histogram")
	cum, count, sum := h.snapshot()
	for i, b := range h.bounds {
		e.bucketLine(name, formatValue(b), cum[i])
	}
	e.bucketLine(name, "+Inf", count)
	e.types[name+"_sum"] = "histogram" // suffixes belong to the family
	e.types[name+"_count"] = "histogram"
	fmt.Fprintf(e.w, "%s_sum %s\n", name, formatValue(sum))
	fmt.Fprintf(e.w, "%s_count %d\n", name, count)
}

func (e *Exposition) bucketLine(name, le string, v int64) {
	fmt.Fprintf(e.w, "%s_bucket{le=%q} %d\n", name, le, v)
}

// HistogramVec is a family of histograms partitioned by one label.
type HistogramVec struct {
	name, label string
	bounds      []float64
	mu          sync.Mutex
	children    map[string]*Histogram
	order       []string
}

// HistogramVec registers and returns a one-label histogram family.
func (r *Registry) HistogramVec(name, label string, bounds []float64) *HistogramVec {
	v := &HistogramVec{name: name, label: label, bounds: bounds, children: map[string]*Histogram{}}
	r.register(name, func(e *Exposition) { e.HistogramVec(v) })
	return v
}

// With returns (creating if needed) the child histogram for label value lv.
func (v *HistogramVec) With(lv string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.children[lv]
	if h == nil {
		h = NewHistogram(v.bounds)
		v.children[lv] = h
		v.order = append(v.order, lv)
	}
	return h
}

// Children returns the label values in creation order with their
// histograms — powload reads quantiles this way, and the exposition
// walks it.
func (v *HistogramVec) Children() (labels []string, hists []*Histogram) {
	v.mu.Lock()
	defer v.mu.Unlock()
	labels = append([]string(nil), v.order...)
	hists = make([]*Histogram, len(labels))
	for i, lv := range labels {
		hists[i] = v.children[lv]
	}
	return labels, hists
}

// HistogramVec emits a labeled histogram family.
func (e *Exposition) HistogramVec(v *HistogramVec) {
	e.family(v.name, "histogram")
	e.types[v.name+"_sum"] = "histogram"
	e.types[v.name+"_count"] = "histogram"
	labels, hists := v.Children()
	for i, lv := range labels {
		h := hists[i]
		cum, count, sum := h.snapshot()
		for j, b := range h.bounds {
			fmt.Fprintf(e.w, "%s_bucket{%s=%q,le=%q} %d\n", v.name, v.label, lv, formatValue(b), cum[j])
		}
		fmt.Fprintf(e.w, "%s_bucket{%s=%q,le=%q} %d\n", v.name, v.label, lv, "+Inf", count)
		fmt.Fprintf(e.w, "%s_sum{%s=%q} %s\n", v.name, v.label, lv, formatValue(sum))
		fmt.Fprintf(e.w, "%s_count{%s=%q} %d\n", v.name, v.label, lv, count)
	}
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
