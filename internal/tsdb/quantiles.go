package tsdb

import (
	"fmt"
	"math"
	"slices"

	"hpcpower/internal/stats"
)

// A job's median and p95 are read from a count table of its readings.
// A job's readings stay in a narrow band (the paper's temporal variance
// is ≈ 11 % of the mean, Figs. 6–7), so counting how often each 0.1 W
// step occurs costs one increment a sample. For readings quantised at
// 0.1 W that answers the exact type-7 quantiles by rank; readings that
// are not — internal/rapl's, energy over an interval, unrounded — are
// answered within half a bucket.
//
// A reading's code is the k with float64(k)/10 == w bit for bit — the
// test internal/block's value tables use — and a bucket spans 1<<shift
// consecutive codes. At shift 0 a bucket is one reading and the answers
// are exact. A reading off the 0.1 W grid (its code is then ⌊10w⌋), or
// readings spanning more than MaxTableBuckets, coarsen the table: the
// width doubles and adjacent buckets merge until the span fits. A coarse
// table answers with bucket midpoints, within half a bucket of the exact
// quantile, clamped to the job's [min, max]. Buckets are aligned to
// multiples of their width and the width is the least that holds the
// readings, so the table — and so the answer — depends on the multiset
// of readings alone, never on the order they arrived in.
const (
	// MaxTableBuckets caps a table at 8 KB: 204.8 W of 0.1 W steps.
	MaxTableBuckets = 2048
	// minTableBuckets is what a table is first allocated at.
	minTableBuckets = 64
	// maxCode bounds codes, and so bucket indices, to where a float64
	// holds every integer: a reading of 9·10^14 W or more is counted in
	// the bucket below it.
	maxCode = 1 << 53
)

// powerTable counts a job's readings: counts[i] fell in bucket lo+i,
// the codes [(lo+i)<<shift, (lo+i+1)<<shift).
type powerTable struct {
	lo     int64
	shift  uint8
	counts []uint32
}

// powerCode returns reading w's code, and whether w is on the 0.1 W grid.
func powerCode(w float64) (int64, bool) {
	x := w * 10
	switch {
	case x >= maxCode:
		return maxCode - 1, false
	case !(x >= 0): // never a validated sample
		return 0, false
	}
	k := int64(x + 0.5)
	if math.Float64bits(float64(k)/10) == math.Float64bits(w) {
		return k, true
	}
	return int64(x), false
}

// add counts reading w and returns the bytes the table grew by.
func (t *powerTable) add(w float64) int64 {
	code, onGrid := powerCode(w)
	if i := code>>t.shift - t.lo; uint64(i) < uint64(len(t.counts)) && (onGrid || t.shift > 0) {
		t.counts[i]++
		return 0
	}
	minShift := t.shift
	if !onGrid {
		minShift = max(minShift, 1)
	}
	return t.reshape(code, minShift)
}

// reshape makes room for code, in buckets at least 1<<minShift codes
// wide, and counts it. The buckets in use and code's decide the shape:
// the least shift at which they span at most MaxTableBuckets, and twice
// that span, centered on it, of at least minTableBuckets and at most
// MaxTableBuckets — so a job's table is reallocated a handful of times
// while its readings find their range, and allocates about twice what it
// ends up holding. It returns the bytes the table grew by.
func (t *powerTable) reshape(code int64, minShift uint8) int64 {
	s := max(t.shift, minShift)
	lo, hi := code>>s, code>>s
	if first, last := t.used(); first >= 0 {
		d := s - t.shift
		lo, hi = min(lo, (t.lo+int64(first))>>d), max(hi, (t.lo+int64(last))>>d)
	}
	for hi-lo >= MaxTableBuckets {
		s, lo, hi = s+1, lo>>1, hi>>1
	}
	span := hi - lo + 1
	n := min(MaxTableBuckets, max(minTableBuckets, 2*span))
	start := lo - (n-span)/2
	counts := make([]uint32, n)
	d := s - t.shift
	for i, c := range t.counts {
		if c != 0 {
			counts[(t.lo+int64(i))>>d-start] += c
		}
	}
	counts[code>>s-start]++
	grown := 4 * int64(cap(counts)-cap(t.counts))
	t.lo, t.shift, t.counts = start, s, counts
	return grown
}

// used returns the first and last index of counts in use, or -1, -1.
func (t *powerTable) used() (first, last int) {
	first = slices.IndexFunc(t.counts, func(c uint32) bool { return c != 0 })
	if first < 0 {
		return -1, -1
	}
	last = len(t.counts) - 1
	for t.counts[last] == 0 {
		last--
	}
	return first, last
}

// coarse reports whether the table answers within half a bucket rather
// than exactly.
func (t *powerTable) coarse() bool { return t.shift > 0 }

// bytes is the table's accounted footprint.
func (t *powerTable) bytes() int64 { return 4 * int64(cap(t.counts)) }

// At is bucket j's reading (its midpoint, on a coarse table) and count:
// the table as stats.Counts.
func (t *powerTable) At(j int) (float64, uint64) {
	code := (t.lo + int64(j)) << t.shift
	if t.shift > 0 {
		code += 1 << (t.shift - 1)
	}
	return float64(code) / 10, uint64(t.counts[j])
}

// quantiles returns the type-7 median and p95 of the n readings the
// table counts, read by rank in one walk; a coarse table's are clamped to
// [minW, maxW], the job's extremes.
func (t *powerTable) quantiles(n int64, minW, maxW float64) (med, p95 float64) {
	if n <= 0 {
		return math.NaN(), math.NaN()
	}
	r := stats.NewRankReader(t)
	med, p95 = r.Quantile(0.5, int(n)), r.Quantile(0.95, int(n))
	if t.coarse() {
		med, p95 = min(max(med, minW), maxW), min(max(p95, minW), maxW)
	}
	return med, p95
}

// TableState is a job's count table as a StoreState carries it:
// Counts[i] readings fell in bucket Lo+i, and a bucket spans 1<<Shift
// codes of 0.1 W (Shift 0: one reading, exact). ExportState leaves
// neither end of Counts 0.
type TableState struct {
	Shift  uint8    `json:"shift"`
	Lo     int64    `json:"lo"`
	Counts []uint32 `json:"counts"`
}

// state copies the table out, without its empty ends.
func (t *powerTable) state() *TableState {
	first, last := t.used()
	if first < 0 {
		return &TableState{Shift: t.shift}
	}
	return &TableState{Shift: t.shift, Lo: t.lo + int64(first), Counts: slices.Clone(t.counts[first : last+1])}
}

// tableFromState checks a table from outside against the n readings of
// its job and adopts it (InstallState takes ownership of its state).
func tableFromState(st *TableState, n int64) (powerTable, error) {
	var sum uint64
	for _, c := range st.Counts {
		sum += uint64(c)
	}
	switch {
	case sum != uint64(n) || n < 0:
		return powerTable{}, fmt.Errorf("quantile table counts %d readings, the job %d", sum, n)
	case len(st.Counts) > MaxTableBuckets:
		return powerTable{}, fmt.Errorf("quantile table spans %d buckets, at most %d", len(st.Counts), MaxTableBuckets)
	case st.Shift > 52 || st.Lo < 0 || st.Lo > maxCode>>st.Shift-int64(len(st.Counts)):
		return powerTable{}, fmt.Errorf("quantile table buckets %d+%d at shift %d lie outside the codes", st.Lo, len(st.Counts), st.Shift)
	}
	return powerTable{lo: st.Lo, shift: st.Shift, counts: st.Counts}, nil
}
