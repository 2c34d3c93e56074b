package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortInputs are the shapes SortFloat64s is checked and measured on:
// power readings quantised to 0.1 W as the fleet reports them, and
// continuous values.
func quantised(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Round((90+rng.Float64()*260)*10) / 10
	}
	return xs
}

func continuous(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 1e3
	}
	return xs
}

// sameOrder reports whether got is want's order: equal element by
// element, NaN matching NaN. Zeros match by ==, so the sign of a zero —
// which sort.Float64s leaves to chance — is not compared.
func sameOrder(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] && !(got[i] != got[i] && want[i] != want[i]) {
			return fmt.Errorf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

func TestSortFloat64sMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{0, 1, 2, 3, radixCutover - 1, radixCutover, radixCutover + 1, 5000, 70001}
	shapes := map[string]func(n int) []float64{
		"quantised":  func(n int) []float64 { return quantised(rng, n) },
		"continuous": func(n int) []float64 { return continuous(rng, n) },
		"all-equal": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 151.2
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := continuous(rng, n)
			sort.Float64s(xs)
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := continuous(rng, n)
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
			return xs
		},
		// Everything Validate lets through or a caller outside ingest
		// can hand in: zeros of both signs, subnormals, infinities,
		// negatives, the extremes, and NaNs of either sign bit.
		"specials": func(n int) []float64 {
			pool := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
				math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, -1, 1, 1e-310, -1e-310,
				math.NaN(), math.Float64frombits(0xfff8000000000001)}
			xs := continuous(rng, n)
			for i := range xs {
				if rng.Intn(3) == 0 {
					xs[i] = pool[rng.Intn(len(pool))]
				}
			}
			return xs
		},
	}
	for name, gen := range shapes {
		for _, n := range sizes {
			xs := gen(n)
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			SortFloat64s(xs)
			if err := sameOrder(xs, want); err != nil {
				t.Fatalf("%s, n=%d: %v", name, n, err)
			}
		}
	}
}

// TestSortFloat64sOrderIndependent pins what live/offline parity rests
// on: one output, bit for bit, per multiset, whatever order the values
// arrive in — with NaNs first on both sides of the cut-over.
func TestSortFloat64sOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{8, 4 * radixCutover} {
		xs := quantised(rng, n)
		copy(xs, []float64{math.NaN(), math.Inf(-1), math.NaN(), -3.5})
		var first []float64
		for trial := 0; trial < 5; trial++ {
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			got := append([]float64(nil), xs...)
			SortFloat64s(got)
			if !(got[0] != got[0] && got[1] != got[1]) || !math.IsInf(got[2], -1) {
				t.Fatalf("n=%d: head %v, want NaN NaN -Inf", n, got[:3])
			}
			if first == nil {
				first = got
			}
			for i := 2; i < n; i++ {
				if math.Float64bits(got[i]) != math.Float64bits(first[i]) {
					t.Fatalf("n=%d: element %d depends on the input order", n, i)
				}
			}
		}
	}
}

// BenchmarkSortFloat64s compares the radix sort with sort.Float64s on
// the value set of one fleet-wide 6 h distribution (368,640 values) and
// around the cut-over.
func BenchmarkSortFloat64s(b *testing.B) {
	shapes := []struct {
		name string
		gen  func(*rand.Rand, int) []float64
	}{{"quantised", quantised}, {"continuous", continuous}}
	sorts := []struct {
		name string
		sort func([]float64)
	}{{"radix", SortFloat64s}, {"stdlib", sort.Float64s}}
	for _, n := range []int{512, 1024, 2048, 368640} {
		for _, sh := range shapes {
			in := sh.gen(rand.New(rand.NewSource(13)), n)
			xs := make([]float64, n)
			for _, s := range sorts {
				b.Run(fmt.Sprintf("%s/n=%d/%s", sh.name, n, s.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						copy(xs, in)
						s.sort(xs)
					}
				})
			}
		}
	}
}
