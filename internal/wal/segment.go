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

// ErrTorn marks a clean truncation: the bytes end inside a frame or a
// header, exactly what a crash mid-append or a dropped connection leaves
// behind. Recovery truncates the segment at the last complete frame and
// carries on; a follower reconnects and resumes after it.
var ErrTorn = errors.New("wal: torn: the input ends inside a frame or header")

// CorruptError reports bytes that are present but wrong — a failed CRC,
// an impossible length, an unknown record type, or a bad magic — in a
// segment, a replication stream or a snapshot file. Recovery treats it
// like a torn tail (truncate and continue) but the distinct type lets
// callers and tests tell silent bit rot from a torn append.
type CorruptError struct {
	Offset int64 // byte offset of the bad frame within its file or stream
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt bytes at offset %d: %s", e.Offset, e.Reason)
}

// AppendFrame encodes one frame onto buf.
func AppendFrame(buf []byte, typ RecordType, body []byte) []byte {
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

// FrameReader pulls frames one at a time off a run of them: the frames
// of a segment, or those of a replication stream, where each frame
// follows a fixed-size prefix (the primary's LSN). It keeps a buffered
// reader and one body buffer that grows as needed, which is why a body
// is only valid until the next call to Next.
type FrameReader struct {
	br     *bufio.Reader
	body   []byte
	head   [8 + frameHeaderSize]byte // a frame's prefix and header
	prefix int
	off    int64
}

// NewFrameReader returns a reader of the frames in r, each preceded by
// prefix bytes (0 for a segment; at most 8). If r opens with a header,
// ReadHeader must read it before the first Next. Unlike the log's own
// scans it is not pooled (it lives as long as its stream), and its
// read-ahead is bufio's default: a body at least that large is read
// straight into the body buffer.
func NewFrameReader(r io.Reader, prefix int) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r), prefix: prefix}
}

// frameReaders pools the readers of segment scans, which are many and
// short: a ReadRange per replication burst.
var frameReaders = sync.Pool{New: func() any {
	return &FrameReader{br: bufio.NewReaderSize(nil, scanBufSize)}
}}

func getFrameReader(r io.Reader) *FrameReader {
	fr := frameReaders.Get().(*FrameReader)
	fr.br.Reset(r)
	fr.off = 0
	return fr
}

func (fr *FrameReader) release() {
	fr.br.Reset(nil) // do not pin the file in the pool
	frameReaders.Put(fr)
}

// ReadHeader reads the len(hdr) bytes that open the input into hdr and
// checks that they start with magic, the 8-byte magic of the named
// format ("segment", "stream"). An input that ends first wraps ErrTorn;
// a magic of another version is an error that names both versions.
func (fr *FrameReader) ReadHeader(hdr []byte, magic, format string) error {
	if n, err := io.ReadFull(fr.br, hdr); err != nil {
		if n == 0 && err == io.EOF {
			return fmt.Errorf("empty %s: %w", format, ErrTorn)
		}
		return tornOrReadError(format+" header", fr.off, err)
	}
	if err := checkMagic(hdr[:8], magic, format); err != nil {
		return err
	}
	fr.off += int64(len(hdr))
	return nil
}

// Offset is the byte offset of the end of the last frame (or header)
// read: the end of the valid prefix of the input so far.
func (fr *FrameReader) Offset() int64 { return fr.off }

// Next reads the next frame: its prefix, its type and its body. err is
// io.EOF on a clean end at a frame boundary, wraps ErrTorn when the input
// ends inside the frame, is a *CorruptError on damaged bytes (a length
// over the limit, a failed CRC, a type other than RecordData and
// RecordTombstone) and wraps the reader's error when a read fails. A
// frame is never returned unless its CRC checks out — there is no path
// that yields a silently wrong record. prefix and body are valid until
// the next call.
func (fr *FrameReader) Next() (prefix []byte, typ RecordType, body []byte, err error) {
	head := fr.head[:fr.prefix+frameHeaderSize]
	if _, err := io.ReadFull(fr.br, head); err != nil {
		if err == io.EOF {
			return nil, 0, nil, io.EOF
		}
		return nil, 0, nil, tornOrReadError("frame header", fr.off, err)
	}
	prefix, fh := head[:fr.prefix], head[fr.prefix:]
	bodyLen := binary.LittleEndian.Uint32(fh[0:4])
	wantCRC := binary.LittleEndian.Uint32(fh[4:8])
	typ = RecordType(fh[8])
	if bodyLen > maxBody {
		return nil, 0, nil, &CorruptError{Offset: fr.off, Reason: fmt.Sprintf("frame length %d exceeds limit", bodyLen)}
	}
	if uint32(cap(fr.body)) < bodyLen {
		fr.body = make([]byte, bodyLen)
	}
	body = fr.body[:bodyLen]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return nil, 0, nil, tornOrReadError("frame body", fr.off, err)
	}
	crc := crc32.Update(0, crcTable, fh[8:9])
	crc = crc32.Update(crc, crcTable, body)
	if crc != wantCRC {
		return nil, 0, nil, &CorruptError{Offset: fr.off, Reason: "crc mismatch"}
	}
	if typ != RecordData && typ != RecordTombstone {
		return nil, 0, nil, &CorruptError{Offset: fr.off, Reason: fmt.Sprintf("unknown record type %d", typ)}
	}
	fr.off += int64(len(head)) + int64(bodyLen)
	return prefix, typ, body, nil
}

// scanSegment reads a segment stream: the header, then every complete,
// CRC-valid frame in order, invoking fn for each. It returns the first
// LSN from the header, the number of valid records, and the byte offset
// of the end of the last valid frame (the safe truncation point). body
// is only valid during fn: the next frame overwrites it.
//
// err is nil on a clean EOF, or Next's or ReadHeader's error, or fn's
// error (scanning stops).
func scanSegment(r io.Reader, fn func(typ RecordType, body []byte) error) (firstLSN uint64, records int, validBytes int64, err error) {
	fr := getFrameReader(r)
	defer fr.release()
	var hdr [segHeaderSize]byte
	if err := fr.ReadHeader(hdr[:], segMagic, "segment"); err != nil {
		return 0, 0, 0, err
	}
	records, err = fr.scanFrames(fn)
	return binary.LittleEndian.Uint64(hdr[8:]), records, fr.Offset(), err
}

// scanFramesAt is scanSegment without the header: r is positioned at the
// frame boundary at byte offset off of a segment whose header the caller
// has no need to re-check (the offset index only describes the segment
// this process is appending to).
func scanFramesAt(r io.Reader, off int64, fn func(typ RecordType, body []byte) error) (records int, validBytes int64, err error) {
	fr := getFrameReader(r)
	defer fr.release()
	fr.off = off
	records, err = fr.scanFrames(fn)
	return records, fr.Offset(), err
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

// scanFrames hands fn every frame up to the end of the input or the
// first bad one.
func (fr *FrameReader) scanFrames(fn func(typ RecordType, body []byte) error) (records int, err error) {
	for {
		_, typ, body, err := fr.Next()
		if err == io.EOF {
			return records, nil
		}
		if err != nil {
			return records, err
		}
		if fn != nil {
			if err := fn(typ, body); err != nil {
				return records, err
			}
		}
		records++
	}
}

// tornOrReadError tells an input that ended inside what (ErrTorn: the
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
