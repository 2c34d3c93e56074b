package block

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"hpcpower/internal/stats"
	"hpcpower/internal/vfs"
)

// Tier identifies a resolution level of the store.
type Tier uint8

const (
	TierRaw Tier = iota // 1m raw samples
	Tier5m              // 5-minute rollups
	Tier1h              // 1-hour rollups
	tierCount
)

// Step returns the rollup bucket width in seconds (0 for raw).
func (t Tier) Step() int64 {
	switch t {
	case Tier5m:
		return 300
	case Tier1h:
		return 3600
	}
	return 0
}

func (t Tier) String() string {
	switch t {
	case TierRaw:
		return "raw"
	case Tier5m:
		return "5m"
	case Tier1h:
		return "1h"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// On-disk layout of one block file (all integers little-endian):
//
//	header  (24 B): magic "PBLK" | version u8 | tier u8 | reserved u16
//	                | windowStart i64 | windowLen i64
//	chunks:         per series, a frame: payloadLen u32 | crc32c u32 | payload
//	index frame:    same framing; payload = seriesCount u32 then per series
//	                node u64 | frameOff u64 | payloadLen u32 | count u32
//	                | minT i64 | maxT i64 | minV f64 | maxV f64
//	                | samples u64                              (64 B each)
//	                then (version 2) the value table, table.go
//	trailer (20 B): indexFrameOff u64 | indexFrameLen u32
//	                | crc32c(first 12 trailer bytes) u32 | magic "KLBP"
//
// A reader trusts nothing: trailer magic + CRC gate the index offset,
// the index frame CRC gates the entries and the table, every entry is
// bounds-checked against the file, and each chunk frame re-verifies its
// own CRC on read. Files are immutable once vfs.WriteFileAtomic has
// published them. The reader takes the current version and the one
// before it: a version-1 file is a block without a value table.
const (
	fileVersion   = 2
	headerLen     = 24
	trailerLen    = 20
	frameHdrLen   = 8
	indexEntryLen = 64
)

var (
	magicHeader  = [4]byte{'P', 'B', 'L', 'K'}
	magicTrailer = [4]byte{'K', 'L', 'B', 'P'}
	castagnoli   = crc32.MakeTable(crc32.Castagnoli)
)

// IndexEntry locates and summarizes one series chunk inside a block
// file: the footer's per-series time range and value min/max let range
// queries and distribution pulls skip chunks without decoding them.
type IndexEntry struct {
	Node    int
	Off     int64 // file offset of the chunk frame
	Len     int   // chunk payload length
	Count   int
	MinT    int64
	MaxT    int64
	MinV    float64
	MaxV    float64
	Samples int64 // raw samples covered (== Count on raw tier; summed counts on rollups)
}

// BlockInfo is the in-memory catalog record of one published block file.
type BlockInfo struct {
	Path        string
	Tier        Tier
	WindowStart int64
	WindowLen   int64
	Bytes       int64
	Series      []IndexEntry // sorted by Node
	// Values is a raw block's value table: each distinct sample value,
	// ascending, with the number of samples that hold it. Nil when the
	// block has none (see table.go).
	Values []stats.ValueCount
}

// End returns the exclusive end of the block's time window.
func (b *BlockInfo) End() int64 { return b.WindowStart + b.WindowLen }

func (b *BlockInfo) entry(node int) (IndexEntry, bool) {
	i := sort.Search(len(b.Series), func(i int) bool { return b.Series[i].Node >= node })
	if i < len(b.Series) && b.Series[i].Node == node {
		return b.Series[i], true
	}
	return IndexEntry{}, false
}

// overlaps reports whether the chunk has points inside [from, hi].
func (e IndexEntry) overlaps(from, hi int64) bool { return e.MaxT >= from && e.MinT <= hi }

// within reports whether every point of the block lies inside
// [from, hi], by its index.
func (b *BlockInfo) within(from, hi int64) bool {
	for _, e := range b.Series {
		if e.MinT < from || e.MaxT > hi {
			return false
		}
	}
	return true
}

// entryIn is entry for a read of [from, hi]: the node's chunk, if it
// has one here that overlaps the range.
func (b *BlockInfo) entryIn(node int, from, hi int64) (IndexEntry, bool) {
	e, ok := b.entry(node)
	return e, ok && e.overlaps(from, hi)
}

// pointsIn sums the point counts of the chunks a read of [from, hi]
// for the given nodes (none means all) will decode — an upper bound on
// what it returns, known before any chunk is read.
func (b *BlockInfo) pointsIn(nodes []int, from, hi int64) int {
	n := 0
	for _, node := range nodes {
		if e, ok := b.entryIn(node, from, hi); ok {
			n += e.Count
		}
	}
	if len(nodes) == 0 {
		for _, e := range b.Series {
			if e.overlaps(from, hi) {
				n += e.Count
			}
		}
	}
	return n
}

func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// encodedSeries is one series' chunk ready for writing, with the footer
// summary already computed.
type encodedSeries struct {
	node    int
	payload []byte
	count   int
	samples int64
	minT    int64
	maxT    int64
	minV    float64
	maxV    float64
}

// writeBlockFile assembles and atomically publishes one block file, with
// the value table of its samples if it has one (raw tier only).
func writeBlockFile(fsys vfs.FS, path string, tier Tier, windowStart, windowLen int64, series []encodedSeries, table []stats.ValueCount) (*BlockInfo, error) {
	sort.Slice(series, func(a, b int) bool { return series[a].node < series[b].node })

	buf := make([]byte, 0, 4096)
	buf = append(buf, magicHeader[:]...)
	buf = append(buf, fileVersion, byte(tier), 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(windowStart))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(windowLen))

	info := &BlockInfo{Path: path, Tier: tier, WindowStart: windowStart, WindowLen: windowLen}
	for _, s := range series {
		off := int64(len(buf))
		buf = appendFrame(buf, s.payload)
		info.Series = append(info.Series, IndexEntry{
			Node: s.node, Off: off, Len: len(s.payload), Count: s.count,
			MinT: s.minT, MaxT: s.maxT, MinV: s.minV, MaxV: s.maxV, Samples: s.samples,
		})
	}

	idx := binary.LittleEndian.AppendUint32(nil, uint32(len(info.Series)))
	for _, e := range info.Series {
		idx = binary.LittleEndian.AppendUint64(idx, uint64(e.Node))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(e.Off))
		idx = binary.LittleEndian.AppendUint32(idx, uint32(e.Len))
		idx = binary.LittleEndian.AppendUint32(idx, uint32(e.Count))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(e.MinT))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(e.MaxT))
		idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(e.MinV))
		idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(e.MaxV))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(e.Samples))
	}
	idx, tabled := AppendTable(idx, table)
	if tabled {
		info.Values = slices.Clone(table)
	}
	idxOff := int64(len(buf))
	buf = appendFrame(buf, idx)
	idxFrameLen := int64(len(buf)) - idxOff

	trailer := binary.LittleEndian.AppendUint64(nil, uint64(idxOff))
	trailer = binary.LittleEndian.AppendUint32(trailer, uint32(idxFrameLen))
	trailer = binary.LittleEndian.AppendUint32(trailer, crc32.Checksum(trailer, castagnoli))
	buf = append(buf, trailer...)
	buf = append(buf, magicTrailer[:]...)

	// A crash leaves no file or a complete one. A failed directory fsync
	// fails the seal: the window is not catalogued and the flush frontier
	// stays below it until a retry publishes the same bytes durably.
	err := vfs.WriteFileAtomic(fsys, path, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("block: publishing %s: %w", filepath.Base(path), err)
	}
	info.Bytes = int64(len(buf))
	return info, nil
}

// OpenBlock validates a block file's trailer, index, and header and
// returns its catalog record. Chunk payloads are not read (and not CRC
// checked) here — blockReader verifies each on access.
func OpenBlock(fsys vfs.FS, path string) (*BlockInfo, error) {
	st, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerLen+frameHdrLen+4+trailerLen {
		return nil, corruptf("%s: %d bytes is too small for a block", filepath.Base(path), size)
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// The 20-byte trailer ends the file: 12 bytes of index location, its
	// CRC, then the closing magic.
	tail := make([]byte, trailerLen)
	if _, err := f.ReadAt(tail, size-int64(len(tail))); err != nil {
		return nil, err
	}
	if [4]byte(tail[16:20]) != magicTrailer {
		return nil, corruptf("%s: bad trailer magic", filepath.Base(path))
	}
	if crc32.Checksum(tail[:12], castagnoli) != binary.LittleEndian.Uint32(tail[12:16]) {
		return nil, corruptf("%s: trailer checksum mismatch", filepath.Base(path))
	}
	idxOff := int64(binary.LittleEndian.Uint64(tail[0:8]))
	idxFrameLen := int64(binary.LittleEndian.Uint32(tail[8:12]))
	if idxOff < headerLen || idxFrameLen < frameHdrLen+4 || idxOff+idxFrameLen != size-int64(len(tail)) {
		return nil, corruptf("%s: index frame out of bounds", filepath.Base(path))
	}

	hdr := make([]byte, headerLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != magicHeader {
		return nil, corruptf("%s: bad header magic", filepath.Base(path))
	}
	version := hdr[4]
	if version != fileVersion && version != fileVersion-1 {
		return nil, corruptf("%s: block file version %d, this build reads versions %d and %d", filepath.Base(path), version, fileVersion-1, fileVersion)
	}
	tier := Tier(hdr[5])
	if tier >= tierCount {
		return nil, corruptf("%s: unknown tier %d", filepath.Base(path), hdr[5])
	}
	info := &BlockInfo{
		Path:        path,
		Tier:        tier,
		WindowStart: int64(binary.LittleEndian.Uint64(hdr[8:16])),
		WindowLen:   int64(binary.LittleEndian.Uint64(hdr[16:24])),
		Bytes:       size,
	}
	if info.WindowLen <= 0 {
		return nil, corruptf("%s: non-positive window length", filepath.Base(path))
	}

	frame := make([]byte, idxFrameLen)
	if _, err := f.ReadAt(frame, idxOff); err != nil {
		return nil, err
	}
	payloadLen := int64(binary.LittleEndian.Uint32(frame[0:4]))
	if payloadLen != idxFrameLen-frameHdrLen {
		return nil, corruptf("%s: index frame length mismatch", filepath.Base(path))
	}
	payload := frame[frameHdrLen:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, corruptf("%s: index checksum mismatch", filepath.Base(path))
	}
	n := int64(binary.LittleEndian.Uint32(payload[0:4]))
	entriesEnd := 4 + n*indexEntryLen
	if int64(len(payload)) < entriesEnd || (version == 1 && int64(len(payload)) != entriesEnd) {
		return nil, corruptf("%s: index claims %d series in %d bytes", filepath.Base(path), n, len(payload)-4)
	}
	prevNode, prevEnd := int64(-1), int64(headerLen)
	var points uint64
	pointsAreSamples := true
	for i := int64(0); i < n; i++ {
		rec := payload[4+i*indexEntryLen:]
		e := IndexEntry{
			Node:    int(int64(binary.LittleEndian.Uint64(rec[0:8]))),
			Off:     int64(binary.LittleEndian.Uint64(rec[8:16])),
			Len:     int(binary.LittleEndian.Uint32(rec[16:20])),
			Count:   int(binary.LittleEndian.Uint32(rec[20:24])),
			MinT:    int64(binary.LittleEndian.Uint64(rec[24:32])),
			MaxT:    int64(binary.LittleEndian.Uint64(rec[32:40])),
			MinV:    math.Float64frombits(binary.LittleEndian.Uint64(rec[40:48])),
			MaxV:    math.Float64frombits(binary.LittleEndian.Uint64(rec[48:56])),
			Samples: int64(binary.LittleEndian.Uint64(rec[56:64])),
		}
		if e.Node < 0 || int64(e.Node) <= prevNode {
			return nil, corruptf("%s: index nodes not strictly ascending", filepath.Base(path))
		}
		prevNode = int64(e.Node)
		// Frames lie between header and index in index order without
		// overlapping, as the writer lays them out — what lets a scan
		// read a run of entries as one region.
		if e.Off < prevEnd || e.Len < 0 || e.Off+frameHdrLen+int64(e.Len) > idxOff || e.Samples < 0 {
			return nil, corruptf("%s: series %d chunk out of bounds", filepath.Base(path), e.Node)
		}
		prevEnd = e.Off + frameHdrLen + int64(e.Len)
		points += uint64(e.Count)
		pointsAreSamples = pointsAreSamples && e.Samples == int64(e.Count)
		info.Series = append(info.Series, e)
	}
	if version == 1 {
		return info, nil
	}
	if info.Values, err = DecodeTable(nil, payload[entriesEnd:], points); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	// A table stands for the samples a decode of the block yields: only a
	// raw block has one, and there every point is one sample.
	if info.Values != nil && (tier != TierRaw || !pointsAreSamples) {
		return nil, corruptf("%s: value table on a block whose points are not its samples", filepath.Base(path))
	}
	return info, nil
}

// blockReader reads the chunk frames of one block through a single
// handle into a buffer it reuses, so a scan over a block's series costs
// one open however many chunks it touches. Payloads it returns alias
// that buffer: they are valid until the next read or close. Only wrong
// bytes (CRC/length mismatches) classify as ErrCorrupt; a failed ReadAt
// is a transient I/O error and must not get a good block quarantined.
type blockReader struct {
	info *BlockInfo
	f    vfs.File
	buf  *[]byte
	// region is the prefetched run of frames starting at file offset
	// regionOff, from which chunk serves entries without another read.
	region    []byte
	regionOff int64
}

// maxPooledReadBuf bounds the frame buffers kept for reuse: a fleet-wide
// region of a 2h block is about a megabyte per thousand nodes, and one
// unusually large read should not pin its buffer forever.
const maxPooledReadBuf = 8 << 20

var readBufPool = sync.Pool{New: func() any { return new([]byte) }}

func openBlockReader(fsys vfs.FS, info *BlockInfo) (blockReader, error) {
	f, err := fsys.Open(info.Path)
	if err != nil {
		return blockReader{}, err
	}
	return blockReader{info: info, f: f, buf: readBufPool.Get().(*[]byte)}, nil
}

func (r *blockReader) close() {
	r.f.Close()
	if cap(*r.buf) <= maxPooledReadBuf {
		readBufPool.Put(r.buf)
	}
}

// read fills the reader's buffer with n bytes from file offset off.
func (r *blockReader) read(off int64, n int) ([]byte, error) {
	r.region = nil
	if cap(*r.buf) < n {
		*r.buf = make([]byte, n)
	}
	b := (*r.buf)[:n]
	if _, err := r.f.ReadAt(b, off); err != nil {
		return nil, fmt.Errorf("block: %s: reading %d bytes at %d: %w", filepath.Base(r.info.Path), n, off, err)
	}
	return b, nil
}

// prefetch reads the frames of entries — a run of consecutive index
// entries, which OpenBlock checked lie in that order in the file — in
// one ReadAt, so the chunk calls for them that follow touch no file.
func (r *blockReader) prefetch(entries []IndexEntry) error {
	first, last := entries[0], entries[len(entries)-1]
	region, err := r.read(first.Off, int(last.Off-first.Off)+frameHdrLen+last.Len)
	r.region, r.regionOff = region, first.Off
	return err
}

// chunk reads (or takes from the prefetched region) and CRC-verifies
// one series' chunk payload.
func (r *blockReader) chunk(e IndexEntry) ([]byte, error) {
	n := int64(frameHdrLen + e.Len)
	var frame []byte
	if off := e.Off - r.regionOff; off >= 0 && off+n <= int64(len(r.region)) {
		frame = r.region[off : off+n]
	} else {
		var err error
		if frame, err = r.read(e.Off, int(n)); err != nil {
			return nil, err
		}
	}
	if int(binary.LittleEndian.Uint32(frame[0:4])) != e.Len {
		return nil, corruptf("%s: series %d frame length mismatch", filepath.Base(r.info.Path), e.Node)
	}
	payload := frame[frameHdrLen:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, corruptf("%s: series %d chunk checksum mismatch", filepath.Base(r.info.Path), e.Node)
	}
	return payload, nil
}
