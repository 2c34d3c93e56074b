package stats

import (
	"math"
	"testing"

	"hpcpower/internal/rng"
)

// TestRankReaderMatchesQuantile: read by rank from counts — some of them
// zero — the type-7 quantiles equal Quantile over the values the counts
// stand for, bit for bit, whatever order the ranks are read in.
func TestRankReaderMatchesQuantile(t *testing.T) {
	src := rng.New(12)
	for trial := 0; trial < 200; trial++ {
		var counts ValueCounts
		var values []float64
		v := math.Round(src.Normal(150, 40)*10) / 10
		for len(values) == 0 || src.Intn(4) != 0 {
			n := uint64(src.Intn(6)) // 0: an empty bucket between values
			counts = append(counts, ValueCount{V: v, N: n})
			for range n {
				values = append(values, v)
			}
			v += float64(1+src.Intn(30)) / 10
		}
		r := NewRankReader(counts)
		for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.8, 0.95, 0.99, 1} {
			got, want := r.Quantile(q, len(values)), Quantile(values, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: q=%v over %d values: %v, Quantile says %v", trial, q, len(values), got, want)
			}
		}
		for i := len(values) - 1; i >= 0; i -= 1 + src.Intn(3) {
			if got := r.At(i); got != values[i] {
				t.Fatalf("trial %d: rank %d read descending is %v, want %v", trial, i, got, values[i])
			}
		}
	}
}
