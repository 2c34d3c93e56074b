package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hpcpower/internal/stats"
)

// refDistFromValues is DistFromValues as it was before it sorted in
// place: copy, sort.Float64s, then the reductions spelled out — the
// left-to-right sum behind Mean, type-7 quantiles, CDFPoints evenly
// spaced ranks. Responses of GET /v1/query/distribution must not move
// by a bit against it.
func refDistFromValues(values []float64) LiveDist {
	if len(values) == 0 {
		return LiveDist{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	quantile := func(q float64) float64 {
		h := q * float64(n-1)
		i := int(math.Floor(h))
		if n == 1 || i >= n-1 {
			return s[n-1]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	d := LiveDist{N: int64(n), Mean: sum / float64(n), Min: s[0], Max: s[n-1],
		P50: quantile(0.50), P80: quantile(0.80), P95: quantile(0.95)}
	m := min(CDFPoints, n)
	for i := 0; i < m; i++ {
		idx := i * (n - 1) / max(m-1, 1)
		d.CDF = append(d.CDF, stats.Point{X: s[idx], Y: float64(idx+1) / float64(n)})
	}
	return d
}

// TestDistFromValuesMatchesCopyAndSort: on both sides of the radix
// cut-over, for quantised and continuous values, every shuffle of one
// multiset reduces to the LiveDist the copy-and-sort implementation
// gave — Mean included, bit for bit. powanalyze -source and
// -live-control gather the same samples in different orders and diff
// their reports byte for byte on the strength of this.
func TestDistFromValuesMatchesCopyAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 150, 199, 200, 201, 1000, 5000, 120000} {
		for _, quantised := range []bool{true, false} {
			values := make([]float64, n)
			for i := range values {
				values[i] = 90 + rng.Float64()*260
				if quantised {
					values[i] = math.Round(values[i]*10) / 10
				}
			}
			want := refDistFromValues(values)
			for trial := 0; trial < 3; trial++ {
				rng.Shuffle(n, func(i, j int) { values[i], values[j] = values[j], values[i] })
				got := DistFromValues(append([]float64(nil), values...))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d quantised=%v shuffle %d: LiveDist differs from the copy-and-sort reference\n got %+v\nwant %+v",
						n, quantised, trial, summary(got), summary(want))
				}
				if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) {
					t.Fatalf("n=%d: mean %v differs in its bits from %v", n, got.Mean, want.Mean)
				}
			}
		}
	}
	if got := DistFromValues(nil); !reflect.DeepEqual(got, LiveDist{}) {
		t.Fatalf("empty input: %+v", got)
	}
}

func summary(d LiveDist) LiveDist { d.CDF = nil; return d }
