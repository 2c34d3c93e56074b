package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hpcpower/internal/stats"
)

// refBitReader is the byte-at-a-time, error-per-read bit reader the
// word-buffered bitReader replaced, kept as the reference the new one
// is checked against: every read is bounds-checked on its own, so it is
// slow and obviously right.
type refBitReader struct {
	b   []byte
	pos uint64 // bit cursor
}

func (r *refBitReader) readBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, io.ErrUnexpectedEOF
	}
	if r.pos+uint64(n) > uint64(len(r.b))*8 {
		return 0, io.ErrUnexpectedEOF
	}
	var v uint64
	for n > 0 {
		byteIdx := r.pos >> 3
		bitOff := uint(r.pos & 7)
		avail := 8 - bitOff
		take := n
		if take > avail {
			take = avail
		}
		chunk := uint64(r.b[byteIdx]>>(avail-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.pos += uint64(take)
		n -= take
	}
	return v, nil
}

// refDecodeChunk is DecodeChunk as it was on the reference reader: the
// same header rule, delta-of-delta ladder and XOR windows, with an
// error out of any single read ending the decode. With the error come
// the points decoded before the bad one.
func refDecodeChunk(payload []byte) (pts []Point, err error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, corruptf("chunk header: bad point count")
	}
	body := payload[n:]
	if count > maxChunkPoints || (count > 0 && uint64(len(body))*8 < 128+(count-1)*2) {
		return nil, corruptf("chunk claims %d points in %d bytes", count, len(body))
	}
	r := &refBitReader{b: body}
	type eof struct{}
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(eof); !ok {
				panic(p)
			}
			err = corruptf("chunk truncated")
		}
	}()
	bits := func(n uint) uint64 {
		v, err := r.readBits(n)
		if err != nil {
			panic(eof{})
		}
		return v
	}
	varBits := func() uint64 {
		if bits(1) == 0 {
			return 0
		}
		for _, n := range []uint{8, 16, 32} {
			if bits(1) == 0 {
				return bits(n)
			}
		}
		return bits(64)
	}
	var t, delta int64
	var prev uint64
	leading, trailing := uint(65), uint(0)
	for i := uint64(0); i < count; i++ {
		if i == 0 {
			t, prev = int64(bits(64)), bits(64)
		} else {
			delta += unzigzag(varBits())
			t += delta
			if bits(1) != 0 {
				if bits(1) != 0 {
					lead, sig := uint(bits(5)), uint(bits(6))
					if sig == 0 {
						sig = 64
					}
					if lead+sig > 64 {
						return pts, corruptf("xor window %d+%d exceeds 64 bits", lead, sig)
					}
					leading, trailing = lead, 64-lead-sig
				} else if leading > 64 {
					return pts, corruptf("xor window reuse before any window was declared")
				}
				prev ^= bits(64-leading-trailing) << trailing
			}
		}
		pts = append(pts, Point{T: t, V: math.Float64frombits(prev)})
	}
	return pts, nil
}

// checkReaderAgainstReference replays one sequence of read widths on
// both readers over the same bytes: same value from every read that
// fits, and the same verdict — and nothing but zeros afterwards — from
// the first one that does not.
func checkReaderAgainstReference(t *testing.T, data []byte, widths []byte) {
	t.Helper()
	ref, r := &refBitReader{b: data}, &bitReader{b: data}
	for i, w := range widths {
		n := uint(w) % 65
		want, err := ref.readBits(n)
		got := r.readBits(n)
		if (err != nil) != r.eof {
			t.Fatalf("read %d (%d bits at bit %d of %d): reference error %v, eof %v", i, n, ref.pos, len(data)*8, err, r.eof)
		}
		if err != nil {
			for _, n := range []uint{1, 7, 64} {
				if got := r.readBits(n); got != 0 || !r.eof {
					t.Fatalf("read after the end returned %#x, eof %v", got, r.eof)
				}
			}
			if r.readBit() != 0 {
				t.Fatal("readBit after the end returned 1")
			}
			return
		}
		if got != want {
			t.Fatalf("read %d (%d bits ending at bit %d): %#x, reference %#x", i, n, ref.pos, got, want)
		}
	}
}

func TestBitReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		widths := make([]byte, 1+rng.Intn(64))
		for i := range widths {
			switch rng.Intn(4) {
			case 0:
				widths[i] = 1 // the control bits of both codecs
			case 1:
				widths[i] = 64
			default:
				widths[i] = byte(rng.Intn(65))
			}
		}
		checkReaderAgainstReference(t, data, widths)
	}
}

// FuzzBitReader lets the fuzzer pick both the bytes and the read widths.
func FuzzBitReader(f *testing.F) {
	f.Add([]byte{}, []byte{1})
	f.Add([]byte{0xa5}, []byte{1, 1, 6, 1})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{64, 8, 1})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, []byte{3, 64, 64, 5, 1})
	f.Fuzz(func(t *testing.T, data, widths []byte) {
		checkReaderAgainstReference(t, data, widths)
	})
}

// checkDecodeAgainstReference holds every raw-chunk reader to the
// reference decoder on any payload: DecodeChunk to the same accept/reject
// verdict (a rejection always wrapping ErrCorrupt) and, when accepted,
// the same points bit for bit; the windowed readers to the reference's
// points filtered by their rule, over a few windows.
func checkDecodeAgainstReference(t *testing.T, payload []byte) {
	t.Helper()
	want, refErr := refDecodeChunk(payload)
	got, err := DecodeChunk(payload)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("DecodeChunk error %v, reference error %v", err, refErr)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
		}
	} else {
		requireSamePoints(t, "DecodeChunk", got, want)
	}
	windows := [][2]int64{{math.MinInt64, math.MaxInt64}}
	if n := len(want); n > 0 {
		lo, mid, hi := want[0].T, want[n/2].T, want[n-1].T
		// Stop at the first point, keep the first and stop in the middle
		// (the window whose tally is compared), filter and stop, and read
		// to the end keeping nothing.
		windows = append(windows, [2]int64{math.MinInt64, lo - 1}, [2]int64{lo, mid},
			[2]int64{want[n/3].T + 1, want[2*n/3].T}, [2]int64{hi + 1, math.MaxInt64})
	}
	for i, w := range windows {
		checkWindowAgainstReference(t, payload, want, refErr, w[0], w[1], i == 2)
		checkUntallyAgainstReference(t, payload, want, refErr, w[0], i == 2)
	}
}

// checkUntallyAgainstReference holds untallyChunkValues, the leading
// edge by complement, to the reference's points ref and error refErr:
// from a tally holding every point the reference decoded — the chunk's
// share of its block's value table — it takes off the values up to the
// first point at or after from, and fails only where the reference
// failed before reaching such a point. A table one short of the first
// value it takes off is corruption. The counts left are compared only
// with tallyCounts.
func checkUntallyAgainstReference(t *testing.T, payload []byte, ref []Point, refErr error, from int64, tallyCounts bool) {
	t.Helper()
	tally, control := &windowTallies[0], &windowTallies[1]
	fill := func() bool {
		tally.Reset()
		for _, p := range ref {
			if !tally.Add(p.V) {
				return false
			}
		}
		return true
	}
	if !fill() {
		return // more distinct values than a table holds
	}
	cut, wantErr := len(ref), refErr
	if from == math.MinInt64 {
		cut, wantErr = 0, nil
	}
	for i, p := range ref[:cut] {
		if p.T >= from {
			cut, wantErr = i, nil
			break
		}
	}
	label := fmt.Sprintf("untally before %d", from)
	err := untallyChunkValues(tally, payload, from)
	if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
		t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
	}
	if err == nil && tallyCounts {
		control.Reset()
		for _, p := range ref[cut:] {
			control.Add(p.V)
		}
		if got, want := tally.Sorted(), control.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("%s: tally %v, reference %v", label, got, want)
		}
	}
	if cut > 0 && wantErr == nil {
		// The table now holds ref[0]'s value once fewer than the prefix
		// takes off.
		fill()
		v, spare := ref[0].V, uint64(1)
		for _, p := range ref[cut:] {
			if math.Float64bits(p.V) == math.Float64bits(v) {
				spare++
			}
		}
		tally.SubN(v, spare)
		if err := untallyChunkValues(tally, payload, from); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: a table one %v short gave error %v", label, ref[0].V, err)
		}
	}
}

// checkWindowAgainstReference holds appendChunkPoints, appendChunkValues
// and tallyChunkValues on [from, hi] to the reference's points ref and
// error refErr under the stop-past-hi rule: the points with from ≤ t,
// up to the first with t > hi, and refErr only if the reference failed
// before reaching such a point. The tally's counts are compared only
// with tallyCounts: Sorted costs a radix sort, and the verdict and the
// values are checked either way.
func checkWindowAgainstReference(t *testing.T, payload []byte, ref []Point, refErr error, from, hi int64, tallyCounts bool) {
	t.Helper()
	var want []Point
	wantErr := refErr
	for _, p := range ref {
		if p.T > hi {
			wantErr = nil
			break
		}
		if p.T >= from {
			want = append(want, p)
		}
	}
	label := fmt.Sprintf("window [%d, %d]", from, hi)
	requireVerdict := func(reader string, err error) {
		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
			t.Fatalf("%s, %s: error %v, reference %v", label, reader, err, wantErr)
		}
	}
	pts, err := appendChunkPoints([]Point{{T: -7}}, payload, from, hi, func(t int64, v float64) Point { return Point{T: t, V: v} })
	requireVerdict("appendChunkPoints", err)
	if pts[0].T != -7 {
		t.Fatalf("%s: appendChunkPoints overwrote dst", label)
	}
	requireSamePoints(t, label+", appendChunkPoints", pts[1:], want)

	vals, err := appendChunkValues(nil, payload, from, hi)
	requireVerdict("appendChunkValues", err)
	if len(vals) != len(want) {
		t.Fatalf("%s: appendChunkValues gave %d values, reference %d", label, len(vals), len(want))
	}
	for i := range want {
		if math.Float64bits(vals[i]) != math.Float64bits(want[i].V) {
			t.Fatalf("%s: value %d = %v, reference %v", label, i, vals[i], want[i].V)
		}
	}

	tally, control := &windowTallies[0], &windowTallies[1]
	tally.Reset()
	control.Reset()
	err = tallyChunkValues(tally, payload, from, hi)
	for _, p := range want {
		if !control.Add(p.V) {
			wantErr = errTallyFull
			break
		}
	}
	if wantErr == errTallyFull {
		if err != errTallyFull {
			t.Fatalf("%s: tallyChunkValues error %v, want errTallyFull", label, err)
		}
		return
	}
	requireVerdict("tallyChunkValues", err)
	if !tallyCounts || err != nil {
		return
	}
	if got, want := tally.Sorted(), control.Sorted(); !slices.Equal(got, want) {
		t.Fatalf("%s: tally %v, reference %v", label, got, want)
	}
}

// windowTallies are the tally checkWindowAgainstReference reads into and
// its control, kept from call to call: a Tally is 0.6 MB, which sync.Pool
// does not keep under the race detector. The checks never run in parallel.
var windowTallies [2]stats.Tally

func requireSamePoints(t *testing.T, label string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
			t.Fatalf("%s: point %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// fleetPoints is n one-minute points of 0.1 W readings with 5 % noise
// around a level, as the end-to-end benchmark's fleet sends them: most
// values re-declare or reuse a window some 50 bits wide.
func fleetPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	level := 90 + 240*rng.Float64()
	for i := range pts {
		pts[i] = Point{T: 1_700_000_000 + int64(i)*60, V: math.Round(level*(1+0.05*rng.NormFloat64())*10) / 10}
	}
	return pts
}

// wideChunk is fleetPoints with the codec's widest fields spliced in: a
// 64-bit delta-of-delta, windows of 57 to 63 bits declared one after
// the other and the last reused, then a 64-bit window declared and
// reused to the end.
func wideChunk(rng *rand.Rand) []Point {
	pts := fleetPoints(rng, 120)
	for i := 40; i < len(pts); i++ {
		pts[i].T += 1 << 40 // zigzag(dod) ≥ 2^32: '1111' and 64 bits
	}
	for i, sig := 60, uint(57); sig < 64; i, sig = i+1, sig+1 {
		pts[i].V = math.Float64frombits(math.Float64bits(pts[i-1].V) ^ (1<<(sig-1) | 1))
	}
	// Sign and last bit both flip: no leading or trailing zero.
	pts[80].V = math.Float64frombits(math.Float64bits(pts[79].V) ^ (1<<63 | 1))
	return pts
}

// TestDecodeMatchesReferenceOnDamage truncates valid chunks at every
// length and flips every bit of a short one and of a long one: the
// long chunks are where the decoder's word-at-a-time path runs, so it
// is held to the reference up to the payload's last byte.
func TestDecodeMatchesReferenceOnDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var chunks [][]byte
	for trial := 0; trial < 20; trial++ {
		pts := make([]Point, 1+rng.Intn(40))
		ts := int64(1600000000)
		for i := range pts {
			ts += 60 + int64(rng.Intn(3)) - 1
			pts[i] = Point{T: ts, V: math.Round(rng.Float64()*4000) / 10}
		}
		chunks = append(chunks, EncodeChunk(pts))
	}
	chunks = append(chunks, EncodeChunk(fleetPoints(rng, 120)), EncodeChunk(wideChunk(rng)))
	for i, enc := range chunks {
		checkDecodeAgainstReference(t, enc)
		for cut := 0; cut < len(enc); cut++ {
			checkDecodeAgainstReference(t, enc[:cut])
		}
		if i == 0 || i == len(chunks)-1 {
			for bit := 0; bit < len(enc)*8; bit++ {
				flipped := append([]byte(nil), enc...)
				flipped[bit/8] ^= 1 << (bit % 8)
				checkDecodeAgainstReference(t, flipped)
			}
		}
	}
}

// FuzzDecodeAgainstReference is the same check on fuzzer input.
func FuzzDecodeAgainstReference(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeChunk([]Point{{T: 1600000000, V: 250.5}, {T: 1600000060, V: 250.5}, {T: 1600000121, V: 251.1}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	rng := rand.New(rand.NewSource(5))
	for _, enc := range [][]byte{EncodeChunk(fleetPoints(rng, 120)), EncodeChunk(wideChunk(rng))} {
		f.Add(enc)
		// Bit flips a third and two thirds in: the windows before them
		// decode, and the complement's prefix runs into them.
		for _, at := range []int{len(enc) * 8 / 3, len(enc) * 16 / 3} {
			flipped := slices.Clone(enc)
			flipped[at/8] ^= 1 << (at % 8)
			f.Add(flipped)
		}
	}
	f.Fuzz(checkDecodeAgainstReference)
}
