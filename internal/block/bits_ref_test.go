package block

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
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
// error out of any single read ending the decode.
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
			pts, err = nil, corruptf("chunk truncated")
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
						return nil, corruptf("xor window %d+%d exceeds 64 bits", lead, sig)
					}
					leading, trailing = lead, 64-lead-sig
				} else if leading > 64 {
					return nil, corruptf("xor window reuse before any window was declared")
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

// checkDecodeAgainstReference holds DecodeChunk to the reference
// decoder on any payload: the same accept/reject verdict (a rejection
// always wrapping ErrCorrupt) and, when accepted, the same points bit
// for bit.
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
		return
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d points, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
			t.Fatalf("point %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	// The values-only path is the same decode with the points dropped.
	vals, err := appendChunkValues(nil, payload, math.MinInt64, math.MaxInt64)
	if err != nil || len(vals) != len(want) {
		t.Fatalf("values-only decode: %d values, err %v; want %d", len(vals), err, len(want))
	}
	for i := range want {
		if math.Float64bits(vals[i]) != math.Float64bits(want[i].V) {
			t.Fatalf("value %d = %v, reference %v", i, vals[i], want[i].V)
		}
	}
}

// TestDecodeMatchesReferenceOnDamage truncates valid chunks at every
// length and flips every bit of a short one.
func TestDecodeMatchesReferenceOnDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		pts := make([]Point, 1+rng.Intn(40))
		ts := int64(1600000000)
		for i := range pts {
			ts += 60 + int64(rng.Intn(3)) - 1
			pts[i] = Point{T: ts, V: math.Round(rng.Float64()*4000) / 10}
		}
		enc := EncodeChunk(pts)
		checkDecodeAgainstReference(t, enc)
		for cut := 0; cut < len(enc); cut++ {
			checkDecodeAgainstReference(t, enc[:cut])
		}
		if trial == 0 {
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
	f.Fuzz(checkDecodeAgainstReference)
}
