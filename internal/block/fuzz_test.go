package block

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hpcpower/internal/vfs"
)

var (
	scratchOnce sync.Once
	scratchPath string
)

// FuzzChunkDecode checks the decoder invariant the query path depends
// on: arbitrary bytes either decode or return an error — never a panic,
// never an over-read, never an absurd allocation. When a mutated input
// does decode, re-encoding its points must round-trip, so the decoder
// cannot invent state the encoder would not produce.
func FuzzChunkDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeChunk(nil))
	f.Add(EncodeChunk([]Point{{T: 1600000000, V: 250.5}}))
	f.Add(EncodeChunk([]Point{
		{T: 1600000000, V: 250.5}, {T: 1600000060, V: 250.5},
		{T: 1600000120, V: 251.1}, {T: 1600000181, V: math.Inf(1)},
	}))
	f.Add(EncodeAggChunk(Rollup([]Point{
		{T: 0, V: 1}, {T: 60, V: 2}, {T: 400, V: 3},
	}, 300)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if pts, err := DecodeChunk(data); err == nil {
			redec, err := DecodeChunk(EncodeChunk(pts))
			if err != nil {
				t.Fatalf("re-decode of re-encoded points failed: %v", err)
			}
			if len(redec) != len(pts) {
				t.Fatalf("re-encode changed length: %d != %d", len(redec), len(pts))
			}
			for i := range pts {
				if redec[i].T != pts[i].T || math.Float64bits(redec[i].V) != math.Float64bits(pts[i].V) {
					t.Fatalf("re-encode changed point %d", i)
				}
			}
		}
		if aggs, err := DecodeAggChunk(data); err == nil {
			redec, err := DecodeAggChunk(EncodeAggChunk(aggs))
			if err != nil {
				t.Fatalf("agg re-decode failed: %v", err)
			}
			if len(redec) != len(aggs) {
				t.Fatalf("agg re-encode changed length: %d != %d", len(redec), len(aggs))
			}
		}
	})
}

// fuzzSeedBlock builds a small valid raw block plus its rollups and
// returns their file contents as fuzz seeds.
func fuzzSeedBlocks(f *testing.F) [][]byte {
	dir := f.TempDir()
	s, err := Open(Config{Dir: dir, WindowSeconds: 7200})
	if err != nil {
		f.Fatal(err)
	}
	series := map[int][]Point{
		0: {{T: 0, V: 100}, {T: 60, V: 100.5}, {T: 3600, V: 101}},
		3: {{T: 30, V: 250}, {T: 90, V: 250}},
	}
	if _, err := s.WriteRaw(0, series); err != nil {
		f.Fatal(err)
	}
	if _, err := s.CompactPending(); err != nil {
		f.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.blk"))
	if err != nil || len(names) == 0 {
		f.Fatalf("no seed blocks (%v)", err)
	}
	var seeds [][]byte
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzBlockIndex feeds arbitrary bytes through the full read path:
// OpenBlock's trailer/index validation, then chunk CRC + decode for any
// entries that survive. Every failure mode must surface as an error. A
// value table OpenBlock accepts (version 2) ascends strictly, counts
// every value at least once and counts the block's samples exactly.
func FuzzBlockIndex(f *testing.F) {
	v1, err := os.ReadFile("testdata/raw_v1.blk")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range append(fuzzSeedBlocks(f), v1) {
		f.Add(seed)
		if len(seed) > 30 {
			f.Add(seed[:len(seed)-7]) // torn tail
			f.Add(seed[5:])           // torn head
		}
	}
	f.Add([]byte("PBLK not really a block KLBP"))
	// One scratch file per fuzz worker process: a fresh TempDir per exec
	// would bottleneck the fuzzer on directory churn.
	scratchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "blockfuzz-*")
		if err != nil {
			f.Fatal(err)
		}
		scratchPath = filepath.Join(dir, "raw-0000000000000000.blk")
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBlockBytes(t, data)
		// Most mutations of an index or its table stop at the CRCs; the
		// same bytes with the CRCs made right reach the parsers behind
		// them.
		if sealed := resealIndex(data); sealed != nil {
			checkBlockBytes(t, sealed)
		}
	})
}

// resealIndex is data with the index frame's and the trailer's CRCs
// recomputed over whatever they cover, or nil when the trailer does not
// locate an index frame inside data.
func resealIndex(data []byte) []byte {
	if len(data) < trailerLen {
		return nil
	}
	tail := data[len(data)-trailerLen:]
	idxOff := binary.LittleEndian.Uint64(tail[0:8])
	idxLen := uint64(binary.LittleEndian.Uint32(tail[8:12]))
	if idxLen < frameHdrLen || idxOff > uint64(len(data)-trailerLen) || idxLen > uint64(len(data)-trailerLen)-idxOff {
		return nil
	}
	out := bytes.Clone(data)
	frame := out[idxOff : idxOff+idxLen]
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameHdrLen:], castagnoli))
	tail = out[len(out)-trailerLen:]
	binary.LittleEndian.PutUint32(tail[12:16], crc32.Checksum(tail[:12], castagnoli))
	return out
}

// checkBlockBytes opens data as a block file and reads every chunk it
// indexes; anything but an error or a consistent answer fails t.
func checkBlockBytes(t *testing.T, data []byte) {
	path := scratchPath
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := OpenBlock(vfs.OS, path)
	if err != nil {
		return // rejected: the only acceptable alternative to success
	}
	var samples, counted uint64
	for _, e := range info.Series {
		samples += uint64(e.Samples)
	}
	for i, c := range info.Values {
		if c.N == 0 || (i > 0 && !(c.V > info.Values[i-1].V)) {
			t.Fatalf("value table entry %d (%v after %v) accepted", i, c, info.Values[max(i-1, 0)])
		}
		counted += c.N
	}
	if info.Values != nil && counted != samples {
		t.Fatalf("value table counts %d samples, the index %d", counted, samples)
	}
	if len(info.Series) == 0 {
		return
	}
	// Chunk by chunk, and as the one region a fleet-wide scan reads:
	// the two must agree on which frames verify and on their bytes.
	r, err := openBlockReader(vfs.OS, info)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	rr, err := openBlockReader(vfs.OS, info)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.close()
	if err := rr.prefetch(info.Series); err != nil {
		t.Fatalf("region read of an index OpenBlock accepted: %v", err)
	}
	for _, e := range info.Series {
		payload, err := r.chunk(e)
		viaRegion, rerr := rr.chunk(e)
		if rr.region == nil {
			t.Fatalf("series %d: not served from the prefetched region", e.Node)
		}
		if (err == nil) != (rerr == nil) || !bytes.Equal(payload, viaRegion) {
			t.Fatalf("series %d: chunk read (%v) and region read (%v) disagree", e.Node, err, rerr)
		}
		if err != nil {
			continue
		}
		if info.Tier == TierRaw {
			DecodeChunk(payload)
		} else {
			DecodeAggChunk(payload)
		}
	}
}
