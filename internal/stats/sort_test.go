package stats

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// distinctValues is n draws from exactly d distinct 0.1 W readings, each
// drawn at least once (n ≥ d).
func distinctValues(rng *rand.Rand, n, d int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		k := rng.Intn(d)
		if i < d {
			k = i
		}
		xs[i] = 50 + float64(k)/10
	}
	rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// TestTally: Sorted is the count of what was added, by bit pattern, in
// SortFloat64s's order (−0 before +0); AddN adds to a value's count;
// a NaN of any bit pattern, and distinct value maxDistinct+1, are refused
// and change nothing; Reset empties the tally.
func TestTally(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	xs := distinctValues(rng, 5000, 300)
	xs = append(xs, 0, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.MaxFloat64)
	tally := GetTally()
	defer PutTally(tally)
	if !tally.AddAll(xs[:2000]) {
		t.Fatal("AddAll refused readings")
	}
	for _, x := range xs[2000:] {
		if !tally.Add(x) {
			t.Fatalf("Add refused %v", x)
		}
	}
	if !tally.AddN(50.1, 7) || !tally.AddN(-3, 2) {
		t.Fatal("AddN refused a reading")
	}
	xs = append(xs, -3, -3, 50.1, 50.1, 50.1, 50.1, 50.1, 50.1, 50.1)
	sorted := slices.Clone(xs)
	SortFloat64s(sorted)
	var want []ValueCount
	for _, x := range sorted {
		if n := len(want); n > 0 && math.Float64bits(want[n-1].V) == math.Float64bits(x) {
			want[n-1].N++
		} else {
			want = append(want, ValueCount{V: x, N: 1})
		}
	}
	same := func(label string) {
		t.Helper()
		got := tally.Sorted()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i].V) != math.Float64bits(want[i].V) || got[i].N != want[i].N {
				t.Fatalf("%s: entry %d = %v, want %v", label, i, got[i], want[i])
			}
		}
	}
	same("added")
	unsorted := tally.AppendCounts([]ValueCount{{V: -7}})
	slices.SortFunc(unsorted[1:], func(a, b ValueCount) int { return cmp.Compare(sortKey(a.V), sortKey(b.V)) })
	if unsorted[0].V != -7 || !slices.EqualFunc(unsorted[1:], want, func(a, b ValueCount) bool {
		return math.Float64bits(a.V) == math.Float64bits(b.V) && a.N == b.N
	}) {
		t.Fatal("AppendCounts, put in order, is not what Sorted returns")
	}
	for _, bits := range []uint64{0x7ff8000000000001, 0xfff8000000000001, 0xffffffffffffffff, 0x7fffffffffffffff} {
		nan := math.Float64frombits(bits)
		if tally.Add(nan) || tally.AddN(nan, 3) || tally.AddAll([]float64{nan}) {
			t.Fatalf("NaN %#x counted", bits)
		}
	}
	same("after the NaNs")

	tally.Reset()
	if got := tally.Sorted(); got != nil {
		t.Fatalf("reset tally holds %v", got)
	}
	full := distinctValues(rng, maxDistinct, maxDistinct)
	if !tally.AddAll(full) || tally.Add(1e9) || tally.AddN(1e9, 2) || tally.AddAll([]float64{1e9}) {
		t.Fatal("the tally held more than maxDistinct values")
	}
	if !tally.Add(full[0]) || len(tally.Sorted()) != maxDistinct {
		t.Fatalf("a full tally: %d values, and a held one refused", len(tally.Sorted()))
	}
}

// TestTallySubN: SubN takes counts off what was added and refuses, with
// nothing changed, a value the tally lacks or holds fewer times, a NaN,
// and −0 for +0; Sorted leaves out a value taken to zero, which comes
// back when it is added again.
func TestTallySubN(t *testing.T) {
	tally := GetTally()
	defer PutTally(tally)
	if !tally.Empty() || tally.SubN(1, 1) {
		t.Fatal("an empty tally is not empty, or took a value off")
	}
	tally.AddAll([]float64{250.5, 250.5, 250.5, 0, 99.9})
	if tally.Empty() {
		t.Fatal("a tally holding values is empty")
	}
	if !tally.SubN(250.5, 2) || !tally.SubN(99.9, 1) {
		t.Fatal("SubN refused counts the tally holds")
	}
	for _, c := range []ValueCount{{250.5, 2}, {99.9, 1}, {1, 1}, {math.Copysign(0, -1), 1}, {math.NaN(), 1}} {
		if tally.SubN(c.V, c.N) {
			t.Fatalf("SubN took %d of %v off", c.N, c.V)
		}
	}
	want := []ValueCount{{0, 1}, {250.5, 1}}
	if got := tally.Sorted(); !slices.Equal(got, want) {
		t.Fatalf("Sorted %v, want %v", got, want)
	}
	if !tally.SubN(0, 1) || !tally.SubN(250.5, 1) || tally.Sorted() != nil || tally.Empty() {
		t.Fatal("a tally taken to zero still sorts values, or is empty again")
	}
	if !tally.Add(99.9) || !slices.Equal(tally.Sorted(), []ValueCount{{99.9, 1}}) {
		t.Fatalf("a value added back after SubN: %v", tally.Sorted())
	}
	if got := tally.AppendCounts(nil); !slices.Equal(got, []ValueCount{{99.9, 1}}) {
		t.Fatalf("AppendCounts %v, want the nonzero counts alone", got)
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

// FuzzSortFloat64s reads the input as float64s, repeats them up to a
// length that takes the radix path when the first byte says so, and
// checks SortFloat64s against slices.Sort with the NaNs moved to the
// front.
func FuzzSortFloat64s(f *testing.F) {
	le := func(big bool, xs ...float64) []byte {
		b := []byte{0}
		if big {
			b[0] = 1
		}
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(le(false))
	f.Add(le(false, 151.2, 90.1, 151.2))
	f.Add(le(true, 151.2, 90.1, 151.2))
	f.Add(le(true, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, -5e-324))
	f.Add(le(true, 1, math.NaN(), 2, math.Float64frombits(0xffffffffffffffff), 1))
	f.Add(le(false, math.NaN(), math.NaN()))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		big := data[0]&1 == 1
		var xs []float64
		for data = data[1:]; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if big && len(xs) > 0 {
			// The same values over and over, past the radix cut-over.
			for base := len(xs); len(xs) < radixCutover+len(data); {
				xs = append(xs, xs[:base]...)
			}
		}
		want := slices.Clone(xs)
		slices.Sort(want) // NaNs first, as sort.Float64s has them
		SortFloat64s(xs)
		if err := sameOrder(xs, want); err != nil {
			t.Fatal(err)
		}
	})
}
