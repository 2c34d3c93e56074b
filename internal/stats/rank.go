package stats

import "math"

// Counts is a multiset given as a run of distinct values, ascending, each
// with how often it occurs (a count may be 0): what a RankReader reads.
type Counts interface {
	At(j int) (v float64, n uint64)
}

// ValueCounts is a run of ValueCount — Tally.Sorted's result — as Counts.
type ValueCounts []ValueCount

func (c ValueCounts) At(j int) (float64, uint64) { return c[j].V, c[j].N }

// RankReader reads the value of rank i (0-based, ascending) of the
// multiset a Counts stands for, walking forward from the last rank it
// read — so reading ranks in ascending order costs one pass.
type RankReader struct {
	counts Counts
	j      int // counts.At(j) holds the last rank read
	below  int // ranks before it
}

// NewRankReader returns a reader of c's ranks.
func NewRankReader(c Counts) RankReader { return RankReader{counts: c} }

// At returns the value of rank i, which must be below the multiset's size.
func (r *RankReader) At(i int) float64 {
	if i < r.below {
		r.j, r.below = 0, 0
	}
	for {
		v, n := r.counts.At(r.j)
		if i < r.below+int(n) {
			return v
		}
		r.below += int(n)
		r.j++
	}
}

// Quantile is the type-7 q-quantile of the n ≥ 1 values r stands for:
// ECDF.Quantile's interpolation with sorted[i] read by rank, so it is
// Quantile over the values themselves, bit for bit.
func (r *RankReader) Quantile(q float64, n int) float64 {
	h := q * float64(n-1)
	i := int(math.Floor(h))
	if n == 1 || i >= n-1 {
		return r.At(n - 1)
	}
	lo := r.At(i)
	return lo + (h-float64(i))*(r.At(i+1)-lo)
}
