// Package block is the on-disk columnar storage engine behind the
// powserved TSDB: time-partitioned immutable block files holding one
// Gorilla-compressed chunk per node series (delta-of-delta timestamps,
// XOR-compressed float values), tiered rollups (raw 1m → 5m → 1h, each
// rollup point carrying count/sum/min/max so downsampled aggregates stay
// exact), per-tier retention, and a windowed range-query API that scans
// compressed chunks without materializing whole series.
//
// The hot in-memory rings of internal/tsdb stay the head of the store;
// sealed 2h windows flush here and reads merge head + blocks. Everything
// is stdlib-only.
package block

import (
	"encoding/binary"
)

// bitWriter appends bits MSB-first into a byte slice.
type bitWriter struct {
	b     []byte
	avail uint // unused low bits in the last byte (0 when byte-aligned)
}

func (w *bitWriter) writeBit(bit uint64) {
	if w.avail == 0 {
		w.b = append(w.b, 0)
		w.avail = 8
	}
	w.avail--
	if bit != 0 {
		w.b[len(w.b)-1] |= 1 << w.avail
	}
}

// writeBits appends the low n bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		if w.avail == 0 {
			w.b = append(w.b, 0)
			w.avail = 8
		}
		take := n
		if take > w.avail {
			take = w.avail
		}
		chunk := (v >> (n - take)) & ((1 << take) - 1)
		w.avail -= take
		w.b[len(w.b)-1] |= byte(chunk << w.avail)
		n -= take
	}
}

// bitReader consumes bits MSB-first from a byte slice through a 64-bit
// buffer: a read is a shift and a mask, and the slice is only touched
// (and its end only checked) once per eight bytes. A read past the end
// sets eof and returns zero bits, as does every read after it, so a
// decoder checks eof once per point instead of once per bit; truncated
// or corrupt input never panics and never over-reads — the property
// the chunk-decode fuzzer locks in. The zero value over b is ready.
type bitReader struct {
	b     []byte // bytes not yet loaded into buf
	buf   uint64 // the unread bits are its low `valid` bits
	valid uint
	eof   bool
}

// readBits returns the next n ≤ 64 bits, most significant first.
func (r *bitReader) readBits(n uint) uint64 {
	if n <= r.valid {
		r.valid -= n
		return r.buf >> r.valid & (1<<n - 1)
	}
	return r.readBitsRefill(n)
}

func (r *bitReader) readBit() uint64 {
	if r.valid == 0 {
		return r.readBitsRefill(1)
	}
	r.valid--
	return r.buf >> r.valid & 1
}

// readBitsRefill serves a read that needs more than the buffer holds:
// the buffered bits become the high part of the result, the next eight
// bytes (fewer at the tail) are loaded, and the rest comes from them.
func (r *bitReader) readBitsRefill(n uint) uint64 {
	need := n - r.valid
	high := r.buf & (1<<r.valid - 1)
	if len(r.b) >= 8 {
		r.buf = binary.BigEndian.Uint64(r.b)
		r.b = r.b[8:]
		r.valid = 64
	} else {
		r.buf = 0
		for _, c := range r.b {
			r.buf = r.buf<<8 | uint64(c)
		}
		r.valid = 8 * uint(len(r.b))
		r.b = nil
	}
	if need > r.valid {
		r.valid, r.eof = 0, true
		return 0
	}
	r.valid -= need
	return high<<need | r.buf>>r.valid&(1<<need-1)
}

// zigzag maps signed to unsigned so small-magnitude deltas of either
// sign encode in few bits.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
