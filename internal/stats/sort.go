package stats

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
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
// GetFloats pool. Below the cut-over it is slices.Sort. The radix sorts
// are counted in RadixSorts.
//
// It tries no counting of its own: a server counts repeated readings in
// a Tally first, and sorts only the values the tally gave up on (more
// than maxDistinct distinct, or a NaN).
func SortFloat64s(xs []float64) {
	if len(xs) < radixCutover || len(xs) > math.MaxUint32 {
		slices.Sort(xs)
		return
	}
	radixSorts.Add(1)
	sortRadix(xs)
}

// sortRadix is the radix sort of SortFloat64s, for 1 to math.MaxUint32
// values.
func sortRadix(xs []float64) {
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

// Tally counts how often each distinct value occurs, in an
// open-addressing table keyed by the value's order key and small enough
// to stay in L2. For readings that repeat — 0.1 W power samples — the
// counts are the distribution itself, and they merge by addition: a
// sealed block stores its tally and a fleet-wide pull adds it up.
//
// A tally holds at most maxDistinct values and no NaN. The add that
// would break either returns false and adds nothing; the tally is then
// spent, and its caller goes back to the values. Take one from GetTally
// and hand it back with PutTally.
type Tally struct {
	slots [countSlots]countSlot
	n     int                     // distinct values held
	used  [maxDistinct]uint32     // slots filled, in order of first sight
	vals  [maxDistinct]float64    // Sorted's scratch
	pairs [maxDistinct]ValueCount // what Sorted returns
}

// ValueCount is one distinct value of a Tally and the number of times it
// was added.
type ValueCount struct {
	V float64
	N uint64
}

// Add counts x once.
func (t *Tally) Add(x float64) bool { return t.AddN(x, 1) }

// AddAll counts every value of xs once, and stops where Add would have
// returned false. It is AddN's probe written out in the loop: a value
// already held — most of them, for readings that repeat — costs a probe
// and no call.
func (t *Tally) AddAll(xs []float64) bool {
	for _, x := range xs {
		k := sortKey(x)
		for i := countHome(k); ; i = (i + 1) & (countSlots - 1) {
			s := &t.slots[i]
			if s.key == k && k != 0 {
				s.n++
				break
			}
			if s.key == 0 {
				if !t.claim(i, k, x) {
					return false
				}
				s.n = 1
				break
			}
		}
	}
	return true
}

// AddN counts x n times.
func (t *Tally) AddN(x float64, n uint64) bool {
	k := sortKey(x)
	i := t.slot(k)
	if (t.slots[i].key != k || k == 0) && !t.claim(i, k, x) {
		return false
	}
	t.slots[i].n += n
	return true
}

// AddCounts adds each value of counts its number of times — a table that
// AppendCounts or Sorted gave, merged into this tally — and stops where
// AddN would have returned false.
func (t *Tally) AddCounts(counts []ValueCount) bool {
	for _, c := range counts {
		if !t.AddN(c.V, c.N) {
			return false
		}
	}
	return true
}

// SubN takes n off x's count and reports whether it could: false, with
// nothing changed, when the tally does not hold x at least n times. A
// count taken to zero keeps its slot, and its place among the distinct
// values a tally holds, but Sorted leaves it out.
func (t *Tally) SubN(x float64, n uint64) bool {
	k := sortKey(x)
	i := t.slot(k)
	if s := &t.slots[i]; s.key == k && k != 0 && s.n >= n {
		s.n -= n
		return true
	}
	return false
}

// Empty reports whether nothing was added since the last Reset.
func (t *Tally) Empty() bool { return t.n == 0 }

// claim takes the empty slot i for x, whose key is k, and reports
// whether it could: no NaN gets in (one of them has the empty slot's
// key 0), nor value maxDistinct+1.
func (t *Tally) claim(i, k uint64, x float64) bool {
	if x != x || t.n == maxDistinct {
		return false
	}
	t.slots[i].key = k
	t.used[t.n] = uint32(i)
	t.n++
	return true
}

// slot is the index of k's slot: the one holding it, or the empty one
// its linear probe ends at.
func (t *Tally) slot(k uint64) uint64 {
	i := countHome(k)
	for t.slots[i].key != k && t.slots[i].key != 0 {
		i = (i + 1) & (countSlots - 1)
	}
	return i
}

// Sorted returns the values counted, ascending in SortFloat64s's order,
// each with its count; a value SubN took to zero is left out. The slice
// belongs to the tally: it is valid until the next Add, AddN, SubN, Reset
// or PutTally.
func (t *Tally) Sorted() []ValueCount {
	vals := t.vals[:0]
	for _, i := range t.used[:t.n] {
		if s := &t.slots[i]; s.n != 0 {
			vals = append(vals, fromSortKey(s.key))
		}
	}
	if len(vals) == 0 {
		return nil
	}
	sortRadix(vals)
	pairs := t.pairs[:len(vals)]
	for j, x := range vals {
		pairs[j] = ValueCount{V: x, N: t.slots[t.slot(sortKey(x))].n}
	}
	return pairs
}

// AppendCounts appends to dst what Sorted returns, in no particular
// order: for a reader that only adds the counts up, and need not pay for
// the sort.
func (t *Tally) AppendCounts(dst []ValueCount) []ValueCount {
	dst = slices.Grow(dst, t.n)
	for _, i := range t.used[:t.n] {
		if s := &t.slots[i]; s.n != 0 {
			dst = append(dst, ValueCount{V: fromSortKey(s.key), N: s.n})
		}
	}
	return dst
}

// Reset empties the tally.
func (t *Tally) Reset() {
	for _, i := range t.used[:t.n] {
		t.slots[i] = countSlot{}
	}
	t.n = 0
}

var tallies = sync.Pool{New: func() any { return new(Tally) }}

// GetTally returns an empty Tally from a pool.
func GetTally() *Tally { return tallies.Get().(*Tally) }

// PutTally empties t and returns it to the pool; nothing may use it, or
// a slice Sorted returned, afterwards.
func PutTally(t *Tally) {
	t.Reset()
	tallies.Put(t)
}

const (
	// maxDistinct is the number of distinct values a Tally gives up
	// beyond: 0.1 W readings over 0–819 W. With 8,000 distinct, counting
	// 368,640 values takes 2.1–3.1 ms against the radix sort's 8.1–9.1;
	// doubling it would double what a pull that gives up has spent.
	maxDistinct = 1 << 13

	// The table has four slots per admitted key, so probes stay short;
	// at 16 bytes a slot it is 512 KB and stays in L2.
	countBits  = 15
	countSlots = 1 << countBits

	countHashMul = 0x9E3779B97F4A7C15 // 2^64 / golden ratio: spreads keys that differ in few bits
)

// countHome is the slot a key's linear probe starts at.
func countHome(k uint64) uint64 { return k * countHashMul >> (64 - countBits) }

type countSlot struct {
	key uint64 // sortKey of the value; 0 marks an empty slot
	n   uint64
}

var radixSorts atomic.Uint64

// RadixSorts reports, process-wide, how many SortFloat64s calls ran the
// radix passes: those of radixCutover values or more.
func RadixSorts() uint64 { return radixSorts.Load() }

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

// fromSortKey is sortKey's inverse.
func fromSortKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
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
