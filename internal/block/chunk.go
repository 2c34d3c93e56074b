package block

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"hpcpower/internal/stats"
)

// Point is one raw sample of a series: a unix-seconds timestamp and a
// power reading in watts.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"w"`
}

// AggPoint is one rollup point: the exact count/sum/min/max of the raw
// points inside its bucket. Carrying the full quartet (not a lossy mean)
// is what keeps downsampled aggregates exact: any re-aggregation over
// rollup points reproduces the brute-force aggregate over the raw points
// they cover.
type AggPoint struct {
	T     int64   `json:"t"` // bucket start, unix seconds
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// ErrCorrupt is the sentinel every corruption condition wraps — failed
// chunk CRCs, impossible lengths, damaged trailers. The query path
// matches it with errors.Is to tell bit rot (quarantine the block and
// fall back to surviving tiers) from transient I/O errors (fail the
// read, touch nothing).
var ErrCorrupt = fmt.Errorf("block: corrupt")

// corruptf wraps a chunk/file corruption condition; all decode errors
// are regular errors (never panics), so a torn or bit-flipped block is
// an operational event, not a crash.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// ---- timestamp delta-of-delta codec -------------------------------------

// tsEncoder emits delta-of-delta timestamps. Regular one-minute cadence
// costs one bit per sample after the first two.
type tsEncoder struct {
	n         int
	prevT     int64
	prevDelta int64
}

func (e *tsEncoder) write(w *bitWriter, t int64) {
	switch e.n {
	case 0:
		w.writeBits(uint64(t), 64)
	default:
		delta := t - e.prevT
		dod := delta - e.prevDelta
		writeVarBits(w, zigzag(dod))
		e.prevDelta = delta
	}
	e.prevT = t
	e.n++
}

type tsDecoder struct {
	n         int
	prevT     int64
	prevDelta int64
}

func (d *tsDecoder) read(r *bitReader) int64 {
	if d.n == 0 {
		d.prevT = int64(r.readBits(64))
	} else {
		d.prevDelta += unzigzag(readVarBits(r))
		d.prevT += d.prevDelta
	}
	d.n++
	return d.prevT
}

// writeVarBits encodes an unsigned value on an exponential bit ladder:
//
//	0                  → '0'
//	< 2^8              → '10'   + 8 bits
//	< 2^16             → '110'  + 16 bits
//	< 2^32             → '1110' + 32 bits
//	otherwise          → '1111' + 64 bits
func writeVarBits(w *bitWriter, u uint64) {
	switch {
	case u == 0:
		w.writeBit(0)
	case u < 1<<8:
		w.writeBits(0b10, 2)
		w.writeBits(u, 8)
	case u < 1<<16:
		w.writeBits(0b110, 3)
		w.writeBits(u, 16)
	case u < 1<<32:
		w.writeBits(0b1110, 4)
		w.writeBits(u, 32)
	default:
		w.writeBits(0b1111, 4)
		w.writeBits(u, 64)
	}
}

func readVarBits(r *bitReader) uint64 {
	if r.readBit() == 0 {
		return 0
	}
	for n := uint(8); n <= 32; n <<= 1 {
		if r.readBit() == 0 {
			return r.readBits(n)
		}
	}
	return r.readBits(64)
}

// ---- XOR float codec (Gorilla §4.1.2) -----------------------------------

// xorEncoder compresses a float64 stream by XOR-ing consecutive bit
// patterns: identical values cost one bit, values sharing the previous
// meaningful-bit window cost 2 + window bits, anything else re-declares
// the window (leading-zero count + significant-bit count + bits).
type xorEncoder struct {
	n        int
	prev     uint64
	leading  uint
	trailing uint
}

func (e *xorEncoder) write(w *bitWriter, v float64) {
	cur := math.Float64bits(v)
	if e.n == 0 {
		w.writeBits(cur, 64)
		e.prev = cur
		e.leading = 65 // sentinel: no window yet
		e.n++
		return
	}
	xor := cur ^ e.prev
	e.prev = cur
	e.n++
	if xor == 0 {
		w.writeBit(0)
		return
	}
	leading := uint(bits.LeadingZeros64(xor))
	trailing := uint(bits.TrailingZeros64(xor))
	if leading > 31 {
		leading = 31 // 5-bit field
	}
	if e.leading <= 64 && leading >= e.leading && trailing >= e.trailing {
		// Reuse the previous window.
		w.writeBits(0b10, 2)
		w.writeBits(xor>>e.trailing, 64-e.leading-e.trailing)
		return
	}
	e.leading, e.trailing = leading, trailing
	sig := 64 - leading - trailing
	w.writeBits(0b11, 2)
	w.writeBits(uint64(leading), 5)
	w.writeBits(uint64(sig)&0x3f, 6) // 64 encodes as 0
	w.writeBits(xor>>trailing, sig)
}

type xorDecoder struct {
	n        int
	prev     uint64
	leading  uint
	trailing uint
}

func (d *xorDecoder) read(r *bitReader) (float64, error) {
	if d.n == 0 {
		d.prev = r.readBits(64)
		d.leading = 65
		d.n++
		return math.Float64frombits(d.prev), nil
	}
	d.n++
	if r.readBit() == 0 {
		return math.Float64frombits(d.prev), nil
	}
	if r.readBit() != 0 {
		hdr := uint(r.readBits(11)) // 5 bits of leading zeros, 6 of length
		lead, sig := hdr>>6, hdr&0x3f
		if sig == 0 {
			sig = 64
		}
		if lead+sig > 64 {
			return 0, corruptf("xor window %d+%d exceeds 64 bits", lead, sig)
		}
		d.leading = lead
		d.trailing = 64 - lead - sig
	} else if d.leading > 64 {
		return 0, corruptf("xor window reuse before any window was declared")
	}
	d.prev ^= r.readBits(64-d.leading-d.trailing) << d.trailing
	return math.Float64frombits(d.prev), nil
}

// ---- raw chunk ----------------------------------------------------------

// EncodeChunk compresses a raw series chunk: a uvarint point count
// followed by one bitstream interleaving delta-of-delta timestamps and
// XOR-compressed values. Decoding returns exactly the input — the codec
// is lossless at the float64 bit level (property-tested).
func EncodeChunk(points []Point) []byte {
	hdr := binary.AppendUvarint(nil, uint64(len(points)))
	w := &bitWriter{b: hdr}
	var ts tsEncoder
	var xe xorEncoder
	for _, p := range points {
		ts.write(w, p.T)
		xe.write(w, p.V)
	}
	return w.b
}

// ChunkEncoder writes the same chunk point by point onto the end of a
// caller's buffer, for callers whose points are not a []Point (the
// snapshot image encodes tsdb's rings in place): Reset with the point
// count, Add exactly that many points, then Bytes. EncodeChunk keeps
// its own loop: the call per point that Add costs is 7–10 % of the
// block flush's encode time.
type ChunkEncoder struct {
	w  bitWriter
	ts tsEncoder
	xe xorEncoder
}

// Reset starts a chunk of count points appended to dst.
func (e *ChunkEncoder) Reset(dst []byte, count int) {
	*e = ChunkEncoder{w: bitWriter{b: binary.AppendUvarint(dst, uint64(count))}}
}

// Add encodes the next point.
func (e *ChunkEncoder) Add(t int64, v float64) {
	e.ts.write(&e.w, t)
	e.xe.write(&e.w, v)
}

// Bytes returns dst with the chunk appended.
func (e *ChunkEncoder) Bytes() []byte { return e.w.b }

// maxChunkPoints bounds a single chunk; a decoded count beyond it (or
// beyond what the payload could possibly hold) is corruption, not an
// allocation request.
const maxChunkPoints = 1 << 24

// maxChunkPrealloc caps the capacity allocated up front from a decoded
// point count: a corrupt header that survives the minimum-size check
// can still claim millions of points, and the pre-allocation must stay
// proportional to the payload actually decoded, not to the claim.
const maxChunkPrealloc = 1 << 16

func preallocCount(count uint64) int {
	if count > maxChunkPrealloc {
		return maxChunkPrealloc
	}
	return int(count)
}

// ChunkIter decodes a raw chunk one point at a time, so each reader
// keeps what it needs — points, values only, a caller's own point type
// — without an intermediate []Point.
type ChunkIter struct {
	r    bitReader
	left uint64 // points not yet decoded
	ts   tsDecoder
	xd   xorDecoder
}

// Init validates the chunk header and positions the iterator before
// the first point. A point count the payload could not hold is an
// error, so Left is safe to size an allocation with: it never exceeds
// four times len(payload).
func (it *ChunkIter) Init(payload []byte) error {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return corruptf("chunk header: bad point count")
	}
	body := payload[n:]
	// The first point costs 64+64 bits, every later one ≥ 1+1; a count
	// that could not fit in the payload is rejected before any
	// allocation or decoding.
	if count > maxChunkPoints || (count > 0 && uint64(len(body))*8 < 128+(count-1)*2) {
		return corruptf("chunk claims %d points in %d bytes", count, len(body))
	}
	*it = ChunkIter{r: bitReader{b: body}, left: count}
	return nil
}

// Left is the number of points not yet decoded.
func (it *ChunkIter) Left() int { return int(it.left) }

// Next decodes one point; call it Left times. It never panics and
// never reads past the payload: truncation and bit flips yield an error.
func (it *ChunkIter) Next() (int64, float64, error) {
	t := it.ts.read(&it.r)
	v, err := it.xd.read(&it.r)
	if it.r.eof {
		return 0, 0, errTruncated
	}
	it.left--
	return t, v, err
}

var errTruncated = corruptf("chunk truncated")

// DecodeChunk decompresses a raw chunk. It never panics and never reads
// past the payload: truncation and bit flips yield an error.
func DecodeChunk(payload []byte) ([]Point, error) {
	var it ChunkIter
	if err := it.Init(payload); err != nil {
		return nil, err
	}
	out := make([]Point, 0, preallocCount(it.left))
	for it.left > 0 {
		t, v, err := it.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, Point{T: t, V: v})
	}
	return out, nil
}

// appendChunkPoints appends to dst the raw chunk's points with
// from ≤ t ≤ hi, each built by mk. A raw chunk is in time order
// (WriteRaw refuses one that is not), so decoding stops at the first
// point past hi.
func appendChunkPoints[P any](dst []P, payload []byte, from, hi int64, mk func(t int64, v float64) P) ([]P, error) {
	var it ChunkIter
	if err := it.Init(payload); err != nil {
		return dst, err
	}
	for it.left > 0 {
		t, v, err := it.Next()
		if err != nil || t > hi {
			return dst, err
		}
		if t >= from {
			dst = append(dst, mk(t, v))
		}
	}
	return dst, nil
}

// appendChunkValues is appendChunkPoints keeping only the values.
func appendChunkValues(dst []float64, payload []byte, from, hi int64) ([]float64, error) {
	var it ChunkIter
	if err := it.Init(payload); err != nil {
		return dst, err
	}
	for it.left > 0 {
		t, v, err := it.Next()
		if err != nil || t > hi {
			return dst, err
		}
		if t >= from {
			dst = append(dst, v)
		}
	}
	return dst, nil
}

// tallyChunkValues is appendChunkValues into a tally: errTallyFull when
// it gives up.
func tallyChunkValues(tally *stats.Tally, payload []byte, from, hi int64) error {
	var it ChunkIter
	if err := it.Init(payload); err != nil {
		return err
	}
	for it.left > 0 {
		t, v, err := it.Next()
		if err != nil || t > hi {
			return err
		}
		if t >= from && !tally.Add(v) {
			return errTallyFull
		}
	}
	return nil
}

// ---- rollup chunk -------------------------------------------------------

// EncodeAggChunk compresses a rollup chunk: uvarint point count, then a
// bitstream of (dod timestamp, varbits count, XOR sum, XOR min, XOR max)
// per point — five columns sharing one stream, each with its own
// predictor state.
func EncodeAggChunk(points []AggPoint) []byte {
	hdr := binary.AppendUvarint(nil, uint64(len(points)))
	w := &bitWriter{b: hdr}
	var ts tsEncoder
	var prevCount int64
	var xsum, xmin, xmax xorEncoder
	for _, p := range points {
		ts.write(w, p.T)
		writeVarBits(w, zigzag(p.Count-prevCount))
		prevCount = p.Count
		xsum.write(w, p.Sum)
		xmin.write(w, p.Min)
		xmax.write(w, p.Max)
	}
	return w.b
}

// DecodeAggChunk decompresses a rollup chunk with the same corruption
// guarantees as DecodeChunk.
func DecodeAggChunk(payload []byte) ([]AggPoint, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, corruptf("agg chunk header: bad point count")
	}
	body := payload[n:]
	// First point: 64-bit timestamp + ≥1-bit count + three 64-bit XOR
	// seeds = 257 bits; every later point ≥ 5 bits (one per column).
	if count > maxChunkPoints || (count > 0 && uint64(len(body))*8 < 257+(count-1)*5) {
		return nil, corruptf("agg chunk claims %d points in %d bytes", count, len(body))
	}
	r := &bitReader{b: body}
	var ts tsDecoder
	var prevCount int64
	var xsum, xmin, xmax xorDecoder
	out := make([]AggPoint, 0, preallocCount(count))
	for i := uint64(0); i < count; i++ {
		t := ts.read(r)
		prevCount += unzigzag(readVarBits(r))
		sum, errSum := xsum.read(r)
		mn, errMin := xmin.read(r)
		mx, errMax := xmax.read(r)
		if r.eof {
			return nil, errTruncated
		}
		if prevCount < 0 {
			return nil, corruptf("agg chunk has negative count")
		}
		if err := cmp.Or(errSum, errMin, errMax); err != nil {
			return nil, err
		}
		out = append(out, AggPoint{T: t, Count: prevCount, Sum: sum, Min: mn, Max: mx})
	}
	return out, nil
}

// Rollup downsamples raw points into step-second buckets. Points are
// consumed in slice order (the flusher writes chunks in time order), so
// each bucket's Sum is the left-to-right sum a brute-force scan over the
// same raw points would compute — count/sum/min/max are exact, not
// approximations. Buckets are emitted in first-seen order; callers that
// need sorted output sort by T (the flusher's input is time-sorted, so
// its output already is).
func Rollup(points []Point, step int64) []AggPoint {
	if step <= 0 || len(points) == 0 {
		return nil
	}
	var out []AggPoint
	idx := map[int64]int{}
	for _, p := range points {
		b := p.T - mod(p.T, step)
		i, ok := idx[b]
		if !ok {
			idx[b] = len(out)
			out = append(out, AggPoint{T: b, Count: 1, Sum: p.V, Min: p.V, Max: p.V})
			continue
		}
		a := &out[i]
		a.Count++
		a.Sum += p.V
		if p.V < a.Min {
			a.Min = p.V
		}
		if p.V > a.Max {
			a.Max = p.V
		}
	}
	return out
}

// mod is a floored modulo (non-negative for negative t), so bucket
// alignment is stable across the epoch.
func mod(t, step int64) int64 {
	m := t % step
	if m < 0 {
		m += step
	}
	return m
}
