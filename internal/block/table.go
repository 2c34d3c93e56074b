package block

import (
	"encoding/binary"
	"math"
	"slices"

	"hpcpower/internal/stats"
)

// A version-2 index frame ends in the raw block's value table: every
// sample value of the block, ascending, with how often it occurs —
// the block's distribution, which a pull over the whole block adds up
// instead of decoding a chunk.
//
//	distinct uvarint (0: no table) | scale u8
//	| distinct × (delta varint | count uvarint)
//
// Each value v is the integer k with v == float64(k)/10^scale, bit for
// bit, stored as the delta from the previous value's k (the first from
// 0): strictly positive after the first, so the values ascend. The writer
// takes the least scale every value round-trips at — 1 for 0.1 W
// readings, which makes an entry ≈ 3 bytes. A block with no such scale
// up to maxTableScale (a −0, or more digits than the fleet reports) or
// more distinct values than a stats.Tally holds carries no table, and
// neither do rollup blocks. The same codec carries each job's power count
// table in a tsdb snapshot image.
const maxTableScale = 9

var pow10 = [maxTableScale + 1]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decimalCode is the k with v == float64(k)/p bit for bit, if there is
// one of magnitude below 2^62.
func decimalCode(v, p float64) (int64, bool) {
	x := math.Round(v * p)
	if !(math.Abs(x) < 1<<62) {
		return 0, false
	}
	k := int64(x)
	return k, math.Float64bits(float64(k)/p) == math.Float64bits(v)
}

// tableScale is the least scale every value of table round-trips at, or
// -1 when none does.
func tableScale(table []stats.ValueCount) int {
next:
	for s, p := range pow10 {
		for _, c := range table {
			if _, ok := decimalCode(c.V, p); !ok {
				continue next
			}
		}
		return s
	}
	return -1
}

// AppendTable appends the encoding of table (ascending, as a Tally's
// Sorted returns it) to dst, and reports whether it is a table: false
// means dst got the "no table" marker.
func AppendTable(dst []byte, table []stats.ValueCount) ([]byte, bool) {
	s := tableScale(table)
	if len(table) == 0 || s < 0 {
		return binary.AppendUvarint(dst, 0), false
	}
	dst = binary.AppendUvarint(dst, uint64(len(table)))
	dst = append(dst, byte(s))
	var prev int64
	for _, c := range table {
		k, _ := decimalCode(c.V, pow10[s])
		dst = binary.AppendVarint(dst, k-prev)
		dst = binary.AppendUvarint(dst, c.N)
		prev = k
	}
	return dst, true
}

// DecodeTable reads a value table that must run to the end of b and
// whose counts must sum to samples, into dst's storage (grown if need
// be): dst[:0] for the "no table" marker. Anything else is corruption:
// values that do not strictly ascend, a zero count, a scale past
// maxTableScale, bytes left over.
func DecodeTable(dst []stats.ValueCount, b []byte, samples uint64) ([]stats.ValueCount, error) {
	distinct, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, corruptf("value table: bad length")
	}
	b = b[n:]
	if distinct == 0 {
		if len(b) != 0 {
			return nil, corruptf("value table: %d bytes after an empty table", len(b))
		}
		return dst[:0], nil
	}
	// An entry takes at least two bytes: bound the allocation by them.
	if len(b) == 0 || distinct > uint64(len(b)-1)/2 {
		return nil, corruptf("value table claims %d values in %d bytes", distinct, len(b))
	}
	if b[0] > maxTableScale {
		return nil, corruptf("value table scale %d", b[0])
	}
	p := pow10[b[0]]
	b = b[1:]
	table := slices.Grow(dst[:0], int(distinct))[:distinct]
	var k int64
	var total uint64
	for i := range table {
		d, n := binary.Varint(b)
		if n <= 0 {
			return nil, corruptf("value table: bad delta")
		}
		b = b[n:]
		c, n := binary.Uvarint(b)
		if n <= 0 || c == 0 || total+c < total {
			return nil, corruptf("value table: bad count")
		}
		b = b[n:]
		if i > 0 && (d <= 0 || k+d < k) {
			return nil, corruptf("value table: values do not ascend")
		}
		k += d
		total += c
		table[i] = stats.ValueCount{V: float64(k) / p, N: c}
		if i > 0 && !(table[i].V > table[i-1].V) {
			return nil, corruptf("value table: values do not ascend")
		}
	}
	if len(b) != 0 {
		return nil, corruptf("value table: %d bytes left over", len(b))
	}
	if total != samples {
		return nil, corruptf("value table counts %d samples, the index %d", total, samples)
	}
	return table, nil
}
