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

// runLen is the number of points ChunkReader.Next decodes per call:
// enough that saving and restoring its state between runs costs nothing
// per point, few enough that a reader on the stack is cheap to zero.
const runLen = 64

// noWindow is ChunkReader.lead before the stream has declared an XOR
// window: more leading zeros than a 64-bit value has.
const noWindow = 65

// ChunkReader is the one decoder of raw chunks. It decodes a run of
// points per call into T and V, so each reader keeps what it needs —
// points, values only, a tally, a caller's own point type — with no
// []Point between and no call per point.
type ChunkReader struct {
	// T and V hold the run the last Next decoded, in their first n
	// entries.
	T [runLen]int64
	V [runLen]float64

	b     []byte // the bitstream after the point count
	pos   uint   // bit cursor into b
	left  int    // points not yet decoded
	t     int64  // the last point's timestamp
	delta int64  // and its distance from the one before
	v     uint64 // the last point's value bits
	lead  uint   // the XOR window's leading zeros, or noWindow
	trail uint   // and its trailing zeros
}

// Init validates the chunk header and positions the reader before the
// first point. A point count the payload could not hold is an error, so
// Left is safe to size an allocation with: it never exceeds four times
// len(payload).
func (r *ChunkReader) Init(payload []byte) error {
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
	// Field by field: assigning a whole ChunkReader would zero T and V.
	r.b, r.pos, r.left = body, 0, int(count)
	r.t, r.delta, r.v, r.lead, r.trail = 0, 0, 0, noWindow, 0
	return nil
}

// Left is the number of points not yet decoded: 0 once Next has met a
// point past its bound or an error.
func (r *ChunkReader) Left() int { return r.left }

var (
	errTruncated = corruptf("chunk truncated")
	errNoWindow  = corruptf("xor window reuse before any window was declared")
)

// Next decodes the next run of points into T and V and returns its
// length. It stops before the first point past hi, after which Left is
// 0: a raw chunk is in time order (WriteRaw refuses one that is not), so
// nothing after that point can be inside a window ending at hi, and a
// damaged tail behind it is never read. Truncation and bit flips yield
// an error, the run's points before the bad one still in T and V. Next
// never panics and never reads past the payload.
//
// The state lives in locals for the run. Each point starts from one
// 64-bit peek at the cursor, which holds at least 57 unread bits: a zero
// delta-of-delta takes one of them, and the value's '0' or '10' prefix
// and its window, or its '11' header, come from the rest. Only a wide
// field reads again. A peek past the end of b reads zeros; the cursor
// then lies past the last bit, which the check after each point rejects,
// so the payload's last bytes go through the same loop; a point that
// ran past the end is truncated even where the zeros read as a bad
// window.
func (r *ChunkReader) Next(hi int64) (int, error) {
	b, pos, end := r.b, r.pos, uint(len(r.b))*8
	t, delta, v, lead, trail := r.t, r.delta, r.v, r.lead, r.trail
	ts, vs := r.T[:min(r.left, runLen)], r.V[:]
	n, stop := 0, false
	var err error
	for n < len(ts) {
		if pos == 0 {
			// Two raw words, which Init's size check guarantees.
			t, v, pos = int64(readWord(b, 0)), readWord(b, 64), 128
		} else {
			w := peek(b, pos)
			if w>>63 == 0 {
				pos++
				w <<= 1
			} else {
				// The ladder: '10', '110' or '1110' and 8, 16 or 32 bits
				// fit the peek; '1111' and 64 bits do not.
				used := uint(68)
				if ones := uint(bits.LeadingZeros64(^w)); ones < 4 {
					width := uint(4) << ones
					delta += unzigzag(w << (ones + 1) >> ((64 - width) & 63))
					used = ones + 1 + width
				} else {
					delta += unzigzag(readWord(b, pos+4))
				}
				pos += used
				w = peek(b, pos)
			}
			t += delta
			// w holds at least 56 unread bits at pos.
			if w>>63 == 0 {
				pos++
			} else {
				have := uint(54) // bits of w left after the control bits
				if w>>62 == 2 {
					if lead == noWindow {
						err = errNoWindow
						if pos+2 > end {
							err = errTruncated
						}
						break
					}
					pos += 2
					w <<= 2
				} else {
					hdr := uint(w>>51) & 0x7ff // 5 bits of leading zeros, 6 of length
					l, sig := hdr>>6, hdr&0x3f
					if sig == 0 {
						sig = 64
					}
					if l+sig > 64 {
						err = corruptf("xor window %d+%d exceeds 64 bits", l, sig)
						if pos+13 > end {
							err = errTruncated
						}
						break
					}
					lead, trail = l, 64-l-sig
					pos += 13
					w <<= 13
					have = 43
				}
				// The window's bits, from w if they are in it.
				sig := 64 - lead - trail
				if sig > have {
					if w = peek(b, pos); sig > 57 {
						w = readWord(b, pos)
					}
				}
				v ^= w >> ((64 - sig) & 63) << (trail & 63)
				pos += sig
			}
		}
		if pos > end {
			err = errTruncated
			break
		}
		if t > hi {
			stop = true
			break
		}
		ts[n], vs[n] = t, math.Float64frombits(v)
		n++
	}
	r.pos, r.t, r.delta, r.v, r.lead, r.trail = pos, t, delta, v, lead, trail
	r.left -= n
	if stop || err != nil {
		r.left = 0
	}
	return n, err
}

// peek returns the 64 bits of b from bit pos on, most significant first:
// at least 57 of them unread, and zeros past the end of b.
func peek(b []byte, pos uint) uint64 {
	if i := pos >> 3; i+8 <= uint(len(b)) {
		return binary.BigEndian.Uint64(b[i:]) << (pos & 7)
	}
	return peekTail(b, pos)
}

func peekTail(b []byte, pos uint) uint64 {
	var w uint64
	for i := pos >> 3; i < pos>>3+8; i++ {
		w <<= 8
		if i < uint(len(b)) {
			w |= uint64(b[i])
		}
	}
	return w << (pos & 7)
}

// readWord returns the 64 bits of b from bit pos on, all of them
// unread: two peeks of 32.
func readWord(b []byte, pos uint) uint64 {
	return peek(b, pos)>>32<<32 | peek(b, pos+32)>>32
}

// DecodeChunk decompresses a raw chunk. It never panics and never reads
// past the payload: truncation and bit flips yield an error.
func DecodeChunk(payload []byte) ([]Point, error) {
	var r ChunkReader
	if err := r.Init(payload); err != nil {
		return nil, err
	}
	out := make([]Point, 0, preallocCount(uint64(r.left)))
	for r.left > 0 {
		n, err := r.Next(math.MaxInt64)
		if err != nil {
			return nil, err
		}
		for k, t := range r.T[:n] {
			out = append(out, Point{T: t, V: r.V[k]})
		}
	}
	return out, nil
}

// appendChunkPoints appends to dst the raw chunk's points with
// from ≤ t ≤ hi, each built by mk.
func appendChunkPoints[P any](dst []P, payload []byte, from, hi int64, mk func(t int64, v float64) P) ([]P, error) {
	var r ChunkReader
	if err := r.Init(payload); err != nil {
		return dst, err
	}
	for r.left > 0 {
		n, err := r.Next(hi)
		for k, t := range r.T[:n] {
			if t >= from {
				dst = append(dst, mk(t, r.V[k]))
			}
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendChunkValues is appendChunkPoints keeping only the values.
func appendChunkValues(dst []float64, payload []byte, from, hi int64) ([]float64, error) {
	var r ChunkReader
	if err := r.Init(payload); err != nil {
		return dst, err
	}
	for r.left > 0 {
		n, err := r.Next(hi)
		for k, t := range r.T[:n] {
			if t >= from {
				dst = append(dst, r.V[k])
			}
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// tallyChunkValues is appendChunkValues into a tally: errTallyFull when
// it gives up. Each run's values from `from` on are packed to the front
// of V, point by point (a damaged chunk can decode out of time order, so
// the points before `from` need not be a prefix), and counted with one
// AddAll.
func tallyChunkValues(tally *stats.Tally, payload []byte, from, hi int64) error {
	var r ChunkReader
	if err := r.Init(payload); err != nil {
		return err
	}
	for r.left > 0 {
		n, err := r.Next(hi)
		kept := 0
		for k, t := range r.T[:n] {
			r.V[kept] = r.V[k]
			if t >= from {
				kept++
			}
		}
		if !tally.AddAll(r.V[:kept]) {
			return errTallyFull
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// errNotInTable is a chunk value its block's value table does not
// account for.
var errNotInTable = corruptf("chunk value missing from the value table")

// untallyChunkValues takes off tally, which holds the chunk's block's
// value table, the values of the chunk's points before its first point
// at or after from: the leading edge of a window, by complement. A value
// the tally lacks, or holds fewer times, is errNotInTable: the table and
// the chunk disagree.
func untallyChunkValues(tally *stats.Tally, payload []byte, from int64) error {
	if from == math.MinInt64 {
		return nil
	}
	var r ChunkReader
	if err := r.Init(payload); err != nil {
		return err
	}
	for r.left > 0 {
		n, err := r.Next(from - 1)
		for _, v := range r.V[:n] {
			if !tally.SubN(v, 1) {
				return errNotInTable
			}
		}
		if err != nil {
			return err
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
	var t, delta, prevCount int64
	// The sum, min and max columns, each with its own previous value and
	// XOR window.
	var prev [3]uint64
	lead, trail := [3]uint{noWindow, noWindow, noWindow}, [3]uint{}
	out := make([]AggPoint, 0, preallocCount(count))
	for i := uint64(0); i < count; i++ {
		if i == 0 {
			t = int64(r.readBits(64))
		} else {
			delta += unzigzag(readVarBits(r))
			t += delta
		}
		prevCount += unzigzag(readVarBits(r))
		var err error
		for c := range prev {
			switch {
			case i == 0:
				prev[c] = r.readBits(64)
			case r.readBit() == 0:
			default:
				if r.readBit() != 0 {
					hdr := uint(r.readBits(11)) // 5 bits of leading zeros, 6 of length
					l, sig := hdr>>6, hdr&0x3f
					if sig == 0 {
						sig = 64
					}
					if l+sig > 64 {
						err = cmp.Or(err, corruptf("xor window %d+%d exceeds 64 bits", l, sig))
						continue
					}
					lead[c], trail[c] = l, 64-l-sig
				} else if lead[c] == noWindow {
					err = cmp.Or(err, errNoWindow)
					continue
				}
				prev[c] ^= r.readBits(64-lead[c]-trail[c]) << trail[c]
			}
		}
		if r.eof {
			return nil, errTruncated
		}
		if prevCount < 0 {
			return nil, corruptf("agg chunk has negative count")
		}
		if err != nil {
			return nil, err
		}
		out = append(out, AggPoint{T: t, Count: prevCount,
			Sum: math.Float64frombits(prev[0]), Min: math.Float64frombits(prev[1]), Max: math.Float64frombits(prev[2])})
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
