// Package repl is the primary/standby replication layer behind a
// highly-available powserved: a CRC-framed record stream a primary
// serves over HTTP, a follower client that replays it into a local
// WAL + TSDB, and an fsynced epoch file that makes promotion fencing
// (refusing writes from a stale primary) survive restarts.
//
// The package deliberately knows nothing about HTTP routing or the
// TSDB: the serving layer wires a Source to its WAL and a Follower to
// its apply path through callbacks, so every piece here is testable
// against plain readers and writers.
package repl

import (
	"encoding/binary"
	"io"

	"hpcpower/internal/wal"
)

// Stream wire format, little-endian throughout:
//
//	header :=  magic[8] epoch[u64] startLSN[u64]
//	frame  :=  lsn[u64] walFrame
//
// walFrame is a WAL segment frame (wal.AppendFrame: bodyLen, a CRC32-C
// over type‖body, type, body), so a flipped bit anywhere in a record is
// detected before the follower applies it, and the frame limit, the
// torn and corrupt errors are the WAL's. startLSN echoes the requested
// resume point; lsn is the primary's WAL LSN for the record, which the
// follower persists alongside its own log so reconnects resume exactly
// after the last applied record.
const (
	streamMagic  = "PWRREP1\n"
	headerSize   = 8 + 8 + 8
	lsnSize      = 8
	heartbeatLen = 8 + 8
)

// FrameType tags a replication stream frame. The WAL frame under it
// carries the same byte, so the WAL reader's check of its record type
// ({1, 2}) is the stream's check of its frame type.
type FrameType byte

const (
	// FrameData carries one WAL data-record body; its lsn field is the
	// primary's LSN for that record.
	FrameData = FrameType(wal.RecordData)
	// FrameHeartbeat carries the primary's durable watermark and current
	// epoch; its lsn field repeats the watermark. Heartbeats let an idle
	// follower measure lag and detect a hung connection.
	FrameHeartbeat = FrameType(wal.RecordTombstone)
)

// AppendHeader encodes the stream header onto buf.
func AppendHeader(buf []byte, epoch, startLSN uint64) []byte {
	buf = append(buf, streamMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return binary.LittleEndian.AppendUint64(buf, startLSN)
}

// AppendFrame encodes one frame onto buf.
func AppendFrame(buf []byte, typ FrameType, lsn uint64, body []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	return wal.AppendFrame(buf, wal.RecordType(typ), body)
}

// HeartbeatBody encodes a heartbeat payload.
func HeartbeatBody(watermark, epoch uint64) []byte {
	var b [heartbeatLen]byte
	binary.LittleEndian.PutUint64(b[0:8], watermark)
	binary.LittleEndian.PutUint64(b[8:16], epoch)
	return b[:]
}

// DecodeHeartbeat decodes a heartbeat payload. ok is false for a body
// of the wrong size (impossible past the CRC, but cheap to guard).
func DecodeHeartbeat(body []byte) (watermark, epoch uint64, ok bool) {
	if len(body) != heartbeatLen {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(body[0:8]), binary.LittleEndian.Uint64(body[8:16]), true
}

// Frame is one decoded stream frame.
type Frame struct {
	Type FrameType
	LSN  uint64
	Body []byte
}

// StreamReader decodes a replication stream: the header once, then
// frames until the stream ends.
type StreamReader struct {
	fr       *wal.FrameReader
	off      int64 // end of the last frame Next returned
	epoch    uint64
	startLSN uint64
}

// NewStreamReader reads and validates the stream header.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	fr := wal.NewFrameReader(r, lsnSize)
	var hdr [headerSize]byte
	if err := fr.ReadHeader(hdr[:], streamMagic, "stream"); err != nil {
		return nil, err
	}
	return &StreamReader{
		fr:       fr,
		off:      headerSize,
		epoch:    binary.LittleEndian.Uint64(hdr[8:16]),
		startLSN: binary.LittleEndian.Uint64(hdr[16:24]),
	}, nil
}

// Epoch returns the primary's epoch from the stream header.
func (sr *StreamReader) Epoch() uint64 { return sr.epoch }

// Next decodes the next frame. It returns io.EOF on a clean end at a
// frame boundary, an error wrapping wal.ErrTorn on a mid-frame end, a
// *wal.CorruptError on damaged bytes and the reader's error, wrapped,
// when a read fails. A frame is never returned unless its CRC checks
// out. Body is valid until the next call: the reader decodes every
// frame into one buffer.
func (sr *StreamReader) Next() (Frame, error) {
	lsn, typ, body, err := sr.fr.Next()
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: FrameType(typ), LSN: binary.LittleEndian.Uint64(lsn), Body: body}
	if f.Type == FrameHeartbeat {
		if _, _, ok := DecodeHeartbeat(body); !ok {
			return Frame{}, &wal.CorruptError{Offset: sr.off, Reason: "malformed heartbeat body"}
		}
	}
	sr.off = sr.fr.Offset()
	return f, nil
}
