package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical values of 100", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Errorf("seed 0 produced only %d distinct values of 100", len(seen))
	}
}

func TestSplitIndependentOfParentPosition(t *testing.T) {
	a := New(7)
	b := New(7)
	// Advance b; substreams must only depend on the initial seed + ids.
	for i := 0; i < 50; i++ {
		b.Uint64()
	}
	sa := a.Split(3, 9)
	sb := b.Split(3, 9)
	for i := 0; i < 100; i++ {
		if sa.Uint64() != sb.Uint64() {
			t.Fatalf("split streams diverged at step %d", i)
		}
	}
}

func TestSplitStreamsAreDistinct(t *testing.T) {
	root := New(7)
	s1 := root.Split(1)
	s2 := root.Split(2)
	s12 := root.Split(1, 2)
	same12, same112 := 0, 0
	for i := 0; i < 100; i++ {
		v1, v2, v3 := s1.Uint64(), s2.Uint64(), s12.Uint64()
		if v1 == v2 {
			same12++
		}
		if v1 == v3 {
			same112++
		}
	}
	if same12 > 2 || same112 > 2 {
		t.Errorf("substreams look correlated: %d %d matches", same12, same112)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(12)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	s := New(13)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-n/10) > 0.05*n/10 {
			t.Errorf("digit %d count %d deviates >5%% from uniform", d, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(15)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestNormal(t *testing.T) {
	s := New(16)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Normal(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal(10,2) mean = %v", mean)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(17)
	for i := 0; i < 10000; i++ {
		v := s.TruncNormal(0, 1, -0.5, 0.5)
		if v < -0.5 || v > 0.5 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
	// Pathological bounds far in the tail still terminate and clamp.
	v := s.TruncNormal(0, 0.001, 5, 6)
	if v < 5 || v > 6 {
		t.Errorf("TruncNormal pathological = %v", v)
	}
}

func TestExpMean(t *testing.T) {
	s := New(18)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(3)
		if v < 0 {
			t.Fatalf("Exp negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Errorf("Exp(3) mean = %v", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(19)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormal(1, 0.5)
	}
	// Median of LogNormal(mu, sigma) is e^mu.
	count := 0
	for _, v := range vals {
		if v < math.E {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("LogNormal median fraction = %v, want ~0.5", frac)
	}
}

func TestBool(t *testing.T) {
	s := New(21)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			count++
		}
	}
	if frac := float64(count) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestShuffle(t *testing.T) {
	s := New(23)
	v := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	sum := 0
	for _, x := range v {
		sum += x
	}
	if sum != 45 {
		t.Errorf("Shuffle lost elements: %v", v)
	}
}

func TestChoice(t *testing.T) {
	s := New(24)
	w := []float64{0, 1, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Choice(w)]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[0])
	}
	if frac := float64(counts[2]) / n; math.Abs(frac-0.75) > 0.01 {
		t.Errorf("Choice weight-3 frequency = %v, want ~0.75", frac)
	}
}

func TestChoicePanics(t *testing.T) {
	s := New(25)
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Choice(%v) did not panic", w)
				}
			}()
			s.Choice(w)
		}()
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(math.MaxUint64, math.MaxUint64)
	// (2^64-1)^2 = 2^128 - 2^65 + 1
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Errorf("mul64 max = (%d, %d)", hi, lo)
	}
	hi, lo = mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Errorf("mul64 2^32*2^32 = (%d, %d)", hi, lo)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Norm()
	}
}

func BenchmarkSplit(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Split(uint64(i))
	}
}

func TestSplitNestedConsistency(t *testing.T) {
	// Nested splits are anchored on the child's seed: splitting the same
	// path twice yields identical grandchildren.
	a := New(5).Split(1).Split(2)
	b := New(5).Split(1).Split(2)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("nested split diverged at %d", i)
		}
	}
	// Different paths to grandchildren differ.
	c := New(5).Split(2).Split(1)
	d := New(5).Split(1).Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("path-swapped substreams correlated: %d matches", same)
	}
}

func TestFloat64Uniformity(t *testing.T) {
	// Chi-squared test over 20 bins at a generous critical value.
	s := New(27)
	const n = 200000
	const bins = 20
	counts := make([]int, bins)
	for i := 0; i < n; i++ {
		counts[int(s.Float64()*bins)]++
	}
	expected := float64(n) / bins
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 19 dof: p=0.001 critical value ~43.8.
	if chi2 > 43.8 {
		t.Errorf("chi-squared = %v, uniformity rejected", chi2)
	}
}
