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

// serialSum is what DistFromCounts's mean adds up, one rounding a time:
// s with v added n times, and how many adds that was. It stops early
// where an add leaves s as it is, as every later one then does, and
// after limit adds, so that a test can ask for any n.
func serialSum(s, v float64, n, limit uint64) (sum float64, done uint64) {
	for done < n && done < limit {
		next := s + v
		done++
		if math.Float64bits(next) == math.Float64bits(s) {
			return s, n
		}
		s = next
	}
	return s, done
}

// checkAddRepeated holds addRepeated to the serial loop on one case, for
// as many adds as the loop can take in limit steps.
func checkAddRepeated(t *testing.T, s, v float64, n uint64) {
	t.Helper()
	want, n := serialSum(s, v, n, 1<<20)
	got := addRepeated(s, v, n)
	if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
		t.Fatalf("%v + %v × %d: kernel %v (%#x), serial %v (%#x)", s, v, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// addCases are the kernel's edges: ties at every parity, sums that cross
// binades and reach the point where adding no longer moves them,
// subnormals, zeros of both signs, negatives, non-finite values, and
// counts far past what a loop could take.
var addCases = []struct {
	s, v float64
	n    uint64
}{
	{0, 0.1, 364_000},
	{0, 250.5, 1 << 40},
	{1, 0x1p-53, 10},           // v/u = ½ at an even K: stays
	{1 + 0x1p-52, 0x1p-53, 10}, // ½ at an odd K: one step up, then stays
	{1, 3 * 0x1p-53, 1000},     // 1½: rounds to 2 at an even K
	{1 + 0x1p-52, 3 * 0x1p-53, 1000},
	{1, 5 * 0x1p-53, 1 << 21},    // 2½ → 2, across many binades
	{0x1p53 - 2, 1, 1 << 40},     // to 2^53, where +1 ties back down
	{0x1p52, 0.5, 100},           // ½ ulp exactly
	{0x1p-1022, 5e-324, 1 << 12}, // subnormal v, smallest normal s
	{5e-324, 5e-324, 1 << 12},    // subnormal s
	{0, math.Copysign(0, -1), 5},
	{math.Copysign(0, -1), 0, 5},
	{math.Copysign(0, -1), math.Copysign(0, -1), 5},
	{-1e6, -0.3, 1 << 18}, // both negative
	{-1e3, 0.7, 1 << 12},  // mixed signs, through zero
	{1e3, -0.7, 1 << 12},
	{math.MaxFloat64 / 2, math.MaxFloat64 / 4, 10},
	{1, math.Inf(1), 3},
	{math.Inf(1), math.Inf(-1), 3},
	{math.NaN(), 1, 1 << 40},
	{1e-300, 1e300, 5},       // v/u overflows
	{1e300, 1e-300, 1 << 40}, // v/u underflows
	{0x1p53 - 2, 1.3, 3},     // the run's last add crosses the binade
}

// TestAddRepeatedMatchesSerial: the kernel is the serial loop, bit for
// bit, on its edges and on random sums of random repeated values, the
// fleet's 0.1 W readings among them.
func TestAddRepeatedMatchesSerial(t *testing.T) {
	for _, c := range addCases {
		checkAddRepeated(t, c.s, c.v, c.n)
	}
	// Sums a few ulps below a binade's top, values of a few ulps: a run
	// that ends one add too late lands on the next binade's coarser grid.
	for _, scale := range []float64{1, 0x1p-60, 0x1p40} {
		for below := 1.0; below <= 9; below++ {
			for _, v := range []float64{0.3, 0.5, 0.7, 1, 1.3, 1.5, 2.5, 2.7, 3.3} {
				checkAddRepeated(t, (0x1p53-below)*scale, v*scale, 16)
			}
		}
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 20_000; i++ {
		v := math.Round(rng.Float64()*4000) / 10
		if i%2 == 1 {
			v = math.Ldexp(rng.Float64(), rng.Intn(40)-20)
		}
		s := math.Ldexp(rng.Float64(), rng.Intn(60)-10)
		checkAddRepeated(t, s, v, uint64(rng.Intn(3000)))
	}
}

// FuzzDistFromCounts holds the mean's kernel to the serial loop on
// starting sums, values and counts drawn from the input, and
// DistFromCounts to DistFromValues on a short table of them.
func FuzzDistFromCounts(f *testing.F) {
	for _, c := range addCases {
		f.Add(math.Float64bits(c.s), math.Float64bits(c.v), c.n)
	}
	f.Fuzz(func(t *testing.T, sBits, vBits, n uint64) {
		s, v := math.Float64frombits(sBits), math.Float64frombits(vBits)
		checkAddRepeated(t, s, v, n)
		// A table of three values, a few of each, against the values
		// written out. Below the radix cut-over DistFromValues leaves −0
		// and +0 in input order, so a table holding both has no oracle.
		counts := []stats.ValueCount{{V: v, N: 1 + n%7}, {V: s, N: 1 + n%5}, {V: v + s, N: 1 + n%3}}
		var values []float64
		zeros := 0
		for _, c := range counts {
			if c.V == 0 {
				zeros |= 1 << (math.Float64bits(c.V) >> 63)
			}
			for range c.N {
				values = append(values, c.V)
			}
		}
		if zeros == 3 {
			return
		}
		tally := stats.GetTally()
		defer stats.PutTally(tally)
		if !tally.AddAll(values) {
			return
		}
		got, want := DistFromCounts(tally.Sorted()), DistFromValues(values)
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("DistFromCounts %#v, DistFromValues %#v", summary(got), summary(want))
		}
	})
}

// BenchmarkDistFromCounts reduces a fleet-wide pull's counts: 368,640
// readings of 0.1 W over ≈ 2,600 distinct values, the shape
// BenchmarkDistribution's pulls hand it. Most of the time used to be the
// mean's one add per reading.
func BenchmarkDistFromCounts(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	tally := stats.GetTally()
	defer stats.PutTally(tally)
	for i := 0; i < 1024*360; i++ {
		tally.Add(math.Round((90+rng.Float64()*260)*(1+0.05*rng.NormFloat64())*10) / 10)
	}
	counts := tally.Sorted()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := DistFromCounts(counts); d.N != 1024*360 {
			b.Fatal(d.N)
		}
	}
}
