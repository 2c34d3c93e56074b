package core

import (
	"fmt"
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
// their reports byte for byte on the strength of this. So does
// DistFromCounts over the multiset's stats.Tally, whenever the tally
// holds it: a distribution pull answers from counts where it can.
func TestDistFromValuesMatchesCopyAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, 5e-324, 151.2}
	for _, n := range []int{1, 2, 3, 150, 199, 200, 201, 1000, 5000, 120000} {
		for _, shape := range []string{"quantised", "continuous", "specials"} {
			if shape == "specials" && n < 1024 {
				continue // below the radix cut-over, −0 and +0 keep their input order
			}
			values := make([]float64, n)
			for i := range values {
				values[i] = 90 + rng.Float64()*260
				switch shape {
				case "quantised":
					values[i] = math.Round(values[i]*10) / 10
				case "specials":
					values[i] = specials[rng.Intn(len(specials))]
				}
			}
			want := refDistFromValues(values)
			for trial := 0; trial < 3; trial++ {
				rng.Shuffle(n, func(i, j int) { values[i], values[j] = values[j], values[i] })
				got := DistFromValues(append([]float64(nil), values...))
				// sort.Float64s leaves −0 and +0 in no particular order, so
				// the specials have DistFromValues alone as their oracle.
				if shape != "specials" && !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d %s shuffle %d: LiveDist differs from the copy-and-sort reference\n got %+v\nwant %+v",
						n, shape, trial, summary(got), summary(want))
				}
				if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) {
					t.Fatalf("n=%d: mean %v differs in its bits from %v", n, got.Mean, want.Mean)
				}
				tally := stats.GetTally()
				if tally.AddAll(values) {
					// Specials put a NaN in Min (0 × Inf), which only the
					// printed form compares equal.
					if fromCounts := DistFromCounts(tally.Sorted()); fmt.Sprintf("%#v", fromCounts) != fmt.Sprintf("%#v", got) {
						t.Fatalf("n=%d %s shuffle %d: DistFromCounts differs from DistFromValues\n got %#v\nwant %#v",
							n, shape, trial, summary(fromCounts), summary(got))
					}
				} else if shape != "continuous" || n <= 8192 {
					t.Fatalf("n=%d %s: the tally gave up", n, shape)
				}
				stats.PutTally(tally)
			}
		}
	}
	if got := DistFromValues(nil); !reflect.DeepEqual(got, LiveDist{}) {
		t.Fatalf("empty input: %+v", got)
	}
	if got := DistFromCounts(nil); !reflect.DeepEqual(got, LiveDist{}) {
		t.Fatalf("no counts: %+v", got)
	}
}

func summary(d LiveDist) LiveDist { d.CDF = nil; return d }
