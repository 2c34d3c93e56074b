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
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Stream wire format, little-endian throughout:
//
//	header :=  magic[8] epoch[u64] startLSN[u64]
//	frame  :=  lsn[u64] bodyLen[u32] crc[u32] type[u8] body[bodyLen]
//
// crc is CRC32-C (Castagnoli) over type‖body, mirroring the WAL segment
// framing so a flipped bit anywhere in a record is detected before the
// follower applies it. startLSN echoes the requested resume point; lsn
// is the primary's WAL LSN for the record, which the follower persists
// alongside its own log so reconnects resume exactly after the last
// applied record.
const (
	streamMagic     = "PWRREP1\n"
	headerSize      = 8 + 8 + 8
	frameHeaderSize = 8 + 4 + 4 + 1
	heartbeatLen    = 8 + 8
	// maxBody bounds a frame body so a corrupt length cannot make a
	// follower allocate gigabytes. Matches the WAL's frame limit.
	maxBody = 32 << 20
)

// FrameType tags a replication stream frame.
type FrameType byte

const (
	// FrameData carries one WAL data-record body; its lsn field is the
	// primary's LSN for that record.
	FrameData FrameType = 1
	// FrameHeartbeat carries the primary's durable watermark and current
	// epoch; its lsn field repeats the watermark. Heartbeats let an idle
	// follower measure lag and detect a hung connection.
	FrameHeartbeat FrameType = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks a stream that ends mid-frame — what a dropped
// connection leaves behind. The follower resumes from its last applied
// LSN; nothing before a CRC-valid frame boundary is ever applied.
var ErrTorn = errors.New("repl: torn frame at end of stream")

// CorruptError reports stream bytes that are present but wrong: a bad
// magic, a failed CRC, an impossible length, or an unknown frame type.
// A follower treats it like a torn stream (reconnect and resume) but
// the distinct type lets tests tell corruption from truncation.
type CorruptError struct {
	Offset int64 // byte offset of the bad frame within the stream
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("repl: corrupt frame at offset %d: %s", e.Offset, e.Reason)
}

// AppendHeader encodes the stream header onto buf.
func AppendHeader(buf []byte, epoch, startLSN uint64) []byte {
	buf = append(buf, streamMagic...)
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], epoch)
	buf = append(buf, u[:]...)
	binary.LittleEndian.PutUint64(u[:], startLSN)
	return append(buf, u[:]...)
}

// AppendFrame encodes one frame onto buf.
func AppendFrame(buf []byte, typ FrameType, lsn uint64, body []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], lsn)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
	crc := crc32.Update(0, crcTable, []byte{byte(typ)})
	crc = crc32.Update(crc, crcTable, body)
	binary.LittleEndian.PutUint32(hdr[12:16], crc)
	hdr[16] = byte(typ)
	buf = append(buf, hdr[:]...)
	return append(buf, body...)
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
	r        io.Reader
	off      int64
	epoch    uint64
	startLSN uint64
}

// NewStreamReader reads and validates the stream header.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	var hdr [headerSize]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if n == 0 && err == io.EOF {
			return nil, fmt.Errorf("empty stream: %w", ErrTorn)
		}
		return nil, fmt.Errorf("stream header: %w", ErrTorn)
	}
	if string(hdr[:8]) != streamMagic {
		// Another digit there is another version, not damage.
		if d := hdr[6]; string(hdr[:6]) == streamMagic[:6] && hdr[7] == '\n' && d >= '0' && d <= '9' {
			return nil, fmt.Errorf("stream version %c, this build reads version 1", d)
		}
		return nil, &CorruptError{Offset: 0, Reason: "bad magic"}
	}
	return &StreamReader{
		r:        r,
		off:      headerSize,
		epoch:    binary.LittleEndian.Uint64(hdr[8:16]),
		startLSN: binary.LittleEndian.Uint64(hdr[16:24]),
	}, nil
}

// Epoch returns the primary's epoch from the stream header.
func (sr *StreamReader) Epoch() uint64 { return sr.epoch }

// Next decodes the next frame. It returns io.EOF on a clean end at a
// frame boundary, an error wrapping ErrTorn on a mid-frame end, and a
// *CorruptError on damaged bytes. A frame is never returned unless its
// CRC checks out.
func (sr *StreamReader) Next() (Frame, error) {
	var fh [frameHeaderSize]byte
	if _, err := io.ReadFull(sr.r, fh[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("frame header at %d: %w", sr.off, ErrTorn)
	}
	lsn := binary.LittleEndian.Uint64(fh[0:8])
	bodyLen := binary.LittleEndian.Uint32(fh[8:12])
	wantCRC := binary.LittleEndian.Uint32(fh[12:16])
	typ := FrameType(fh[16])
	if bodyLen > maxBody {
		return Frame{}, &CorruptError{Offset: sr.off, Reason: fmt.Sprintf("frame length %d exceeds limit", bodyLen)}
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(sr.r, body); err != nil {
		return Frame{}, fmt.Errorf("frame body at %d: %w", sr.off, ErrTorn)
	}
	crc := crc32.Update(0, crcTable, []byte{byte(typ)})
	crc = crc32.Update(crc, crcTable, body)
	if crc != wantCRC {
		return Frame{}, &CorruptError{Offset: sr.off, Reason: "crc mismatch"}
	}
	switch typ {
	case FrameData:
	case FrameHeartbeat:
		if _, _, ok := DecodeHeartbeat(body); !ok {
			return Frame{}, &CorruptError{Offset: sr.off, Reason: "malformed heartbeat body"}
		}
	default:
		return Frame{}, &CorruptError{Offset: sr.off, Reason: fmt.Sprintf("unknown frame type %d", typ)}
	}
	sr.off += int64(frameHeaderSize) + int64(bodyLen)
	return Frame{Type: typ, LSN: lsn, Body: body}, nil
}
