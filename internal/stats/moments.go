package stats

import (
	"math"
	"math/bits"
)

// Exact moments. Moments holds readings as integers, so what it holds
// depends on the multiset of readings alone: any order of Adds, and any
// split merged back, leaves the same state to the bit. A reading
// w in [0, 2⁶³/(10·2³²)) W — up to a little over 214 MW — counts as its
// code
//
//	p = round(w · 10 · 2³²)
//
// — its count of 0.1 W steps with 32 fraction bits, below 2⁶³, the
// product taken in float64. A reading on the 0.1 W grid, k/10 W for
// k < 2¹⁹, codes to k·2³² exactly, so readings of one value average to
// it; any other reading is off its code by at most 2⁻³³/10 W, plus w·2⁻⁵³
// for the product's rounding (which matters only above ≈ 210 kW), and so
// is the mean, before the few float64 roundings it is read with. A
// reading outside the range — negative, or too large — has no code: it
// sets Over, and from then on Mean and Variance are +Inf. Min and Max
// stay exact either way. NaN has no place among the extremes and is the
// caller's to keep out (trace.PowerSample.Validate does).

// fixedScale is the code of 1 W.
const fixedScale = 10 << 32

// fixedCode is w's code, and whether w has one. Below 2⁵² adding ½ is
// exact, so truncating rounds half up as math.Round does; above, x is a
// whole number already.
func fixedCode(w float64) (uint64, bool) {
	x := w * fixedScale
	switch {
	case x >= 0 && x < 1<<52:
		return uint64(int64(x + 0.5)), true
	case x >= 0 && x < 1<<63:
		return uint64(int64(x)), true
	}
	return 0, false
}

// Moments is the count, the extremes and the exact sums Σp and Σp² of a
// set of readings: their mean and variance, held as integers. Merge is
// addition. The zero value is empty; the fields are the whole state, so
// a copy, or a JSON round trip, continues exactly.
type Moments struct {
	N int64 `json:"n"`
	// Sum is Σp in 128 bits and SumSq Σp² in 192, the high word first.
	Sum   [2]uint64 `json:"sum"`
	SumSq [3]uint64 `json:"sum_sq"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Over  bool      `json:"over,omitempty"`
}

// Add counts w in.
func (m *Moments) Add(w float64) {
	if m.N == 0 || w < m.Min {
		m.Min = w
	}
	if m.N == 0 || w > m.Max {
		m.Max = w
	}
	m.N++
	p, ok := fixedCode(w)
	if !ok {
		m.Over = true
		return
	}
	hi, lo := bits.Mul64(p, p)
	var c uint64
	m.Sum[1], c = bits.Add64(m.Sum[1], p, 0)
	m.Sum[0] += c
	m.SumSq[2], c = bits.Add64(m.SumSq[2], lo, 0)
	m.SumSq[1], c = bits.Add64(m.SumSq[1], hi, c)
	m.SumSq[0] += c
}

// Merge adds o's readings to m.
func (m *Moments) Merge(o *Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = *o
		return
	}
	m.N += o.N
	m.Min, m.Max = min(m.Min, o.Min), max(m.Max, o.Max)
	m.Over = m.Over || o.Over
	var c uint64
	m.Sum[1], c = bits.Add64(m.Sum[1], o.Sum[1], 0)
	m.Sum[0] += o.Sum[0] + c
	m.SumSq[2], c = bits.Add64(m.SumSq[2], o.SumSq[2], 0)
	m.SumSq[1], c = bits.Add64(m.SumSq[1], o.SumSq[1], c)
	m.SumSq[0] += o.SumSq[0] + c
}

// Total is the sum of the readings: Σp rounded to the nearest float64,
// then divided by 10·2³². +Inf once Over.
func (m *Moments) Total() float64 {
	if m.Over {
		return math.Inf(1)
	}
	return float256([4]uint64{m.Sum[1], m.Sum[0]}) / fixedScale
}

// Mean is Σp rounded to the nearest float64, divided by N, then by
// 10·2³² — so N readings of one value on the 0.1 W grid mean that value.
// NaN when empty, +Inf once Over.
func (m *Moments) Mean() float64 {
	switch {
	case m.N == 0:
		return math.NaN()
	case m.Over:
		return math.Inf(1)
	}
	return float256([4]uint64{m.Sum[1], m.Sum[0]}) / float64(m.N) / fixedScale
}

// scatter is N·Σp² − (Σp)², N²·10²·2⁶⁴ times the population variance, in
// 256 bits, the low word first; ok is false if it comes out negative,
// which no set of readings gives.
func (m *Moments) scatter() (d [4]uint64, ok bool) {
	var nss, pp [4]uint64
	for i, w := range m.SumSq {
		mulAdd(&nss, w, uint64(m.N), 2-i)
	}
	hi, lo := m.Sum[0], m.Sum[1]
	mulAdd(&pp, lo, lo, 0)
	mulAdd(&pp, lo, hi, 1)
	mulAdd(&pp, lo, hi, 1)
	mulAdd(&pp, hi, hi, 2)
	var b uint64
	for i := range d {
		d[i], b = bits.Sub64(nss[i], pp[i], b)
	}
	return d, b == 0
}

// Variance is the population variance: N·Σp² − (Σp)² rounded to the
// nearest float64, scaled by 2⁻⁶⁴, divided by N twice and by 100. NaN
// when empty, +Inf once Over.
func (m *Moments) Variance() float64 {
	switch {
	case m.N == 0:
		return math.NaN()
	case m.Over:
		return math.Inf(1)
	}
	d, ok := m.scatter()
	if !ok {
		return math.NaN()
	}
	n := float64(m.N)
	return math.Ldexp(float256(d), -64) / n / n / 100
}

// Std is the population standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Variance()) }

// Valid reports whether the fields could have come from Adds: a count
// of zero with nothing else set, or extremes in order, Over exactly when
// one of them has no code, and otherwise Σp between N codes of Min and N
// codes of Max and N·Σp² no less than (Σp)².
func (m *Moments) Valid() bool {
	switch {
	case m.N < 0:
		return false
	case m.N == 0:
		return *m == Moments{}
	case !(m.Min <= m.Max):
		return false
	}
	lo, okLo := fixedCode(m.Min)
	hi, okHi := fixedCode(m.Max)
	if m.Over || !okLo || !okHi {
		return m.Over == !(okLo && okHi)
	}
	var least, most [2]uint64
	least[0], least[1] = bits.Mul64(lo, uint64(m.N))
	most[0], most[1] = bits.Mul64(hi, uint64(m.N))
	_, ok := m.scatter()
	return ok && !less128(m.Sum, least) && !less128(most, m.Sum)
}

// float256 is d, low word first, rounded to the nearest float64.
func float256(d [4]uint64) float64 {
	top := 3
	for top > 0 && d[top] == 0 {
		top--
	}
	if top == 0 {
		return float64(d[0])
	}
	// The 64 bits from the highest set bit down, the rest as a sticky bit.
	s := uint(64 - bits.Len64(d[top]))
	x := d[top]<<s | d[top-1]>>(64-s)
	sticky := d[top-1] << s
	for i := top - 2; i >= 0; i-- {
		sticky |= d[i]
	}
	if sticky != 0 {
		x |= 1
	}
	return math.Ldexp(float64(x), 64*top-int(s))
}

// mulAdd adds x·y·2^(64·at) to r, low word first.
func mulAdd(r *[4]uint64, x, y uint64, at int) {
	hi, lo := bits.Mul64(x, y)
	var c uint64
	r[at], c = bits.Add64(r[at], lo, 0)
	r[at+1], c = bits.Add64(r[at+1], hi, c)
	for i := at + 2; i < len(r) && c != 0; i++ {
		r[i], c = bits.Add64(r[i], 0, c)
	}
}

// less128 compares two 128-bit values, the high word first.
func less128(a, b [2]uint64) bool {
	return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
}
