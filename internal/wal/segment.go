package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Segment file layout:
//
//	header  :=  magic[8] firstLSN[u64le]
//	frame   :=  bodyLen[u32le] crc[u32le] type[u8] body[bodyLen]
//
// crc is CRC32-C (Castagnoli) over type‖body, so a bit flip anywhere in
// the record — including its type — is detected. bodyLen excludes the
// type byte. Records are strictly append-only; a record's LSN is
// firstLSN + its index within the segment, which is why segments must
// stay contiguous and why recovery truncates (never skips) a bad frame.
const (
	segMagic        = "PWRWAL1\n"
	segHeaderSize   = 8 + 8
	frameHeaderSize = 4 + 4 + 1

	// maxBody bounds a frame body so a corrupted length field cannot make
	// the reader allocate gigabytes or mistake megabytes of garbage for a
	// single record.
	maxBody = 32 << 20
)

// RecordType tags a WAL frame.
type RecordType byte

const (
	// RecordData carries an ingest batch payload.
	RecordData RecordType = 1
	// RecordTombstone cancels an earlier RecordData by LSN: the batch was
	// logged but then refused (ingest queue full), so replay must skip it.
	RecordTombstone RecordType = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks a clean truncation: the segment ends inside a frame (or
// inside the header), exactly what a crash mid-append leaves behind.
// Recovery truncates the segment at the last complete frame and carries on.
var ErrTorn = errors.New("wal: torn frame at end of segment")

// CorruptError reports bytes that are present but wrong — a failed CRC,
// an impossible length, an unknown record type, or a bad magic. Recovery
// treats it like a torn tail (truncate and continue) but the distinct
// type lets callers and tests tell silent bit rot from a torn append.
type CorruptError struct {
	Offset int64 // byte offset of the bad frame within the segment
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt frame at offset %d: %s", e.Offset, e.Reason)
}

// appendFrame encodes one frame onto buf.
func appendFrame(buf []byte, typ RecordType, body []byte) []byte {
	start := len(buf)
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	hdr[8] = byte(typ)
	buf = append(buf, hdr[:]...)
	buf = append(buf, body...)
	// type‖body is contiguous in the frame, so one pass covers both.
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Update(0, crcTable, buf[start+8:]))
	return buf
}

// appendSegmentHeader encodes the segment header onto buf.
func appendSegmentHeader(buf []byte, firstLSN uint64) []byte {
	buf = append(buf, segMagic...)
	var lsn [8]byte
	binary.LittleEndian.PutUint64(lsn[:], firstLSN)
	return append(buf, lsn[:]...)
}

// scanBufSize is the read-ahead of a segment scan: large enough that a
// typical 24 KB ingest record costs a fraction of a read syscall, small
// enough that a one-record tail read does not drag in much it will not
// parse.
const scanBufSize = 64 << 10

// frameReader is the reusable state of a segment scan: a buffered reader
// and one growing body buffer, which is why a scan callback must not keep
// `body` past its return.
type frameReader struct {
	br   *bufio.Reader
	body []byte
}

var frameReaders = sync.Pool{New: func() any {
	return &frameReader{br: bufio.NewReaderSize(nil, scanBufSize)}
}}

func getFrameReader(r io.Reader) *frameReader {
	fr := frameReaders.Get().(*frameReader)
	fr.br.Reset(r)
	return fr
}

func (fr *frameReader) release() {
	fr.br.Reset(nil) // do not pin the file in the pool
	frameReaders.Put(fr)
}

// scanSegment reads a segment stream: the header, then every complete,
// CRC-valid frame in order, invoking fn for each. It returns the first
// LSN from the header, the number of valid records, and the byte offset
// of the end of the last valid frame (the safe truncation point). body
// is only valid during fn: the next frame overwrites it.
//
// err is nil on a clean EOF, wraps ErrTorn on an incomplete tail, is a
// *CorruptError on damaged bytes, wraps the reader's error when a read
// fails, or is fn's error (scanning stops).
// A frame is never delivered to fn unless its CRC checks out — there is
// no path that yields a silently wrong record.
func scanSegment(r io.Reader, fn func(typ RecordType, body []byte) error) (firstLSN uint64, records int, validBytes int64, err error) {
	fr := getFrameReader(r)
	defer fr.release()
	var hdr [segHeaderSize]byte
	if n, rerr := io.ReadFull(fr.br, hdr[:]); rerr != nil {
		if n == 0 && rerr == io.EOF {
			return 0, 0, 0, fmt.Errorf("empty segment: %w", ErrTorn)
		}
		return 0, 0, 0, tornOrReadError("segment header", 0, rerr)
	}
	if err := checkMagic(hdr[:8], segMagic, "segment"); err != nil {
		return 0, 0, 0, err
	}
	records, validBytes, err = fr.scanFrames(segHeaderSize, fn)
	return binary.LittleEndian.Uint64(hdr[8:]), records, validBytes, err
}

// scanFramesAt is scanSegment without the header: r is positioned at the
// frame boundary at byte offset off of a segment whose header the caller
// has no need to re-check (the offset index only describes the segment
// this process is appending to).
func scanFramesAt(r io.Reader, off int64, fn func(typ RecordType, body []byte) error) (records int, validBytes int64, err error) {
	fr := getFrameReader(r)
	defer fr.release()
	return fr.scanFrames(off, fn)
}

// versionError is a header of another version: a newer (or much older)
// writer's, not damage, so no recovery truncates over it.
type versionError string

func (e versionError) Error() string { return string(e) }

// checkMagic checks a header's first 8 bytes against want, a magic of the
// form "PWRxxx1\n": another digit there is a versionError.
func checkMagic(got []byte, want, format string) error {
	if string(got) == want {
		return nil
	}
	if d := got[6]; string(got[:6]) == want[:6] && got[7] == '\n' && d >= '0' && d <= '9' {
		return versionError(fmt.Sprintf("%s version %c, this build reads version %c", format, d, want[6]))
	}
	return &CorruptError{Offset: 0, Reason: "bad magic"}
}

// scanFrames is the frame loop of a scan, starting at the frame boundary
// at byte offset off. validBytes is the offset of the end of the last
// valid frame.
func (fr *frameReader) scanFrames(off int64, fn func(typ RecordType, body []byte) error) (records int, validBytes int64, err error) {
	var fh [frameHeaderSize]byte
	for {
		_, rerr := io.ReadFull(fr.br, fh[:])
		if rerr == io.EOF {
			return records, off, nil
		}
		if rerr != nil {
			return records, off, tornOrReadError("frame header", off, rerr)
		}
		bodyLen := binary.LittleEndian.Uint32(fh[0:4])
		wantCRC := binary.LittleEndian.Uint32(fh[4:8])
		typ := RecordType(fh[8])
		if bodyLen > maxBody {
			return records, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("frame length %d exceeds limit", bodyLen)}
		}
		if uint32(cap(fr.body)) < bodyLen {
			fr.body = make([]byte, bodyLen)
		}
		body := fr.body[:bodyLen]
		if _, rerr := io.ReadFull(fr.br, body); rerr != nil {
			return records, off, tornOrReadError("frame body", off, rerr)
		}
		crc := crc32.Update(0, crcTable, fh[8:9])
		crc = crc32.Update(crc, crcTable, body)
		if crc != wantCRC {
			return records, off, &CorruptError{Offset: off, Reason: "crc mismatch"}
		}
		if typ != RecordData && typ != RecordTombstone {
			return records, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("unknown record type %d", typ)}
		}
		if fn != nil {
			if err := fn(typ, body); err != nil {
				return records, off, err
			}
		}
		records++
		off += int64(frameHeaderSize) + int64(bodyLen)
	}
}

// tornOrReadError tells a stream that ended inside what (ErrTorn: the
// bytes are not there, truncate) from a read that failed (the bytes may
// well be there: an EIO must stop the scan, not shorten the log).
func tornOrReadError(what string, off int64, rerr error) error {
	if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
		return fmt.Errorf("%s at %d: %w", what, off, ErrTorn)
	}
	return fmt.Errorf("wal: reading %s at %d: %w", what, off, rerr)
}

// truncatable reports whether err is the kind recovery absorbs by
// truncating the log at the last valid frame: a torn tail or corruption.
func truncatable(err error) bool {
	var ce *CorruptError
	return errors.Is(err, ErrTorn) || errors.As(err, &ce)
}

// tombstoneBody encodes the cancelled LSN for a RecordTombstone.
func tombstoneBody(cancelled uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], cancelled)
	return b[:]
}

// DecodeTombstone returns the LSN a RecordTombstone body cancels.
// Malformed bodies (impossible for frames that passed CRC, but cheap to
// guard) decode to 0, which is never a valid LSN.
func DecodeTombstone(body []byte) uint64 {
	if len(body) != 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(body)
}
