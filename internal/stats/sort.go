package stats

import (
	"math"
	"slices"
	"sync"
)

// SortFloat64s sorts xs in place into exactly the order sort.Float64s
// defines: ascending, negatives before positives, subnormals in their
// place, ±Inf at the ends, NaNs first; −0 and +0 are equal and, as
// there, land next to each other in no particular order. Apart from
// the sign of a zero the result is a function of the multiset of values
// alone, never of their input order.
//
// From radixCutover up it is an LSD radix sort: six stable counting
// passes over 11-bit digits of an order-preserving uint64 key, all six
// histograms taken in one read of the input, and a pass skipped when
// every key shares its digit. Cost is linear, for quantised and
// continuous values alike; the one scratch slice comes from the
// GetFloats pool. Below the cut-over it is slices.Sort.
func SortFloat64s(xs []float64) {
	if len(xs) < radixCutover || len(xs) > math.MaxUint32 {
		slices.Sort(xs)
		return
	}
	var counts [radixPasses][radixBuckets]uint32
	nan := false
	for _, x := range xs {
		nan = nan || x != x
		k := sortKey(x)
		counts[0][k&radixMask]++
		counts[1][k>>(1*radixBits)&radixMask]++
		counts[2][k>>(2*radixBits)&radixMask]++
		counts[3][k>>(3*radixBits)&radixMask]++
		counts[4][k>>(4*radixBits)&radixMask]++
		counts[5][k>>(5*radixBits)]++
	}
	if nan {
		// The key would put NaNs last (or first, by their sign bit):
		// move them to the front and sort the rest.
		n := 0
		for i, x := range xs {
			if x != x {
				xs[i], xs[n] = xs[n], xs[i]
				n++
			}
		}
		SortFloat64s(xs[n:])
		return
	}
	scratch := GetFloats()
	defer PutFloats(scratch)
	*scratch = slices.Grow((*scratch)[:0], len(xs))
	src, dst := xs, (*scratch)[:len(xs)]
	for p := range counts {
		c, shift := &counts[p], p*radixBits
		cur := sortKey(src[0]) >> shift & radixMask
		if c[cur] == uint32(len(src)) {
			continue
		}
		sum := uint32(0)
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		// The write cursor of a digit stays in a register while the
		// digit repeats: after the first pass equal values sit next to
		// each other, and quantised readings repeat a lot — bumping
		// c[d] through memory each time would serialise on it.
		pos := c[cur]
		for _, x := range src {
			if d := sortKey(x) >> shift & radixMask; d != cur {
				c[cur] = pos
				cur, pos = d, c[d]
			}
			dst[pos] = x
			pos++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
	radixPasses  = 6 // 6 × 11 bits cover the 64-bit key

	// radixCutover is where the radix sort's fixed cost (clearing and
	// summing six 2,048-entry histograms) is repaid; measured with
	// BenchmarkSortFloat64s.
	radixCutover = 1024
)

// sortKey maps a non-NaN float64 to a uint64 with the same order: the
// sign bit is flipped on positives, every bit on negatives.
func sortKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// maxPooledFloats bounds the buffers PutFloats keeps: a fleet-wide
// 6-hour pull of a thousand nodes is ≈ 370 k values, and one
// months-long pull should not pin its tens of megabytes forever.
const maxPooledFloats = 1 << 21

var floatsPool = sync.Pool{New: func() any { return new([]float64) }}

// GetFloats returns a reusable []float64 (length unspecified) for a
// value set that lives no longer than one reduction — the values of a
// distribution pull, the radix sort's scratch. Hand it back with
// PutFloats once nothing references its elements.
func GetFloats() *[]float64 { return floatsPool.Get().(*[]float64) }

// PutFloats returns a GetFloats buffer to the pool; buffers grown past
// maxPooledFloats values are dropped instead.
func PutFloats(p *[]float64) {
	if cap(*p) <= maxPooledFloats {
		floatsPool.Put(p)
	}
}
