package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

type refRecord struct {
	lsn  uint64
	typ  RecordType
	body []byte
}

// TestReadRangeMatchesFullScan drives a log through seeded random
// interleavings of data appends, tombstones, rotations, Reap and
// close/reopen, and after every step checks that ReadRange over
// random ranges returns exactly what a full Replay filtered to the range
// returns — whichever of the two start points (offset index or segment
// header) ReadRange picked.
func TestReadRangeMatchesFullScan(t *testing.T) {
	for _, cfg := range []struct {
		segBytes int64
		maxBody  int
	}{
		{256, 64},          // a rotation every few records: one index entry per segment
		{16 << 10, 3000},   // several index entries per segment
		{256 << 10, 12000}, // long segments: most reads seek into the middle
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("seg%d/seed%d", cfg.segBytes, seed), func(t *testing.T) {
				checkReadRangeAgainstReplay(t, cfg.segBytes, cfg.maxBody, seed)
			})
		}
	}
}

func checkReadRangeAgainstReplay(t *testing.T, segBytes int64, maxBody int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opts := Options{Policy: SyncNone, SegmentBytes: segBytes}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { l.Close() }()

	for step := 0; step < 300; step++ {
		last := l.LastLSN()
		switch op := rng.Intn(100); {
		case op < 78:
			body := make([]byte, rng.Intn(maxBody+1))
			rng.Read(body)
			if _, err := l.Append(body); err != nil {
				t.Fatal(err)
			}
		case op < 90:
			if _, err := l.AppendTombstone(uint64(rng.Int63n(int64(last) + 1))); err != nil {
				t.Fatal(err)
			}
		case op < 94:
			if _, err := l.Reap(uint64(rng.Int63n(int64(last) + 1))); err != nil {
				t.Fatal(err)
			}
		default:
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
		}

		var ref []refRecord
		err := l.Replay(func(lsn uint64, typ RecordType, body []byte) error {
			ref = append(ref, refRecord{lsn, typ, append([]byte(nil), body...)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) == 0 {
			continue
		}
		oldest, newest := ref[0].lsn, ref[len(ref)-1].lsn
		if newest != l.LastLSN() {
			t.Fatalf("step %d: Replay ends at %d, LastLSN is %d", step, newest, l.LastLSN())
		}
		for k := 0; k < 6; k++ {
			from := oldest + uint64(rng.Int63n(int64(newest-oldest)+1))
			to := from + uint64(rng.Int63n(int64(newest-from)+1))
			if k == 0 {
				from, to = newest, newest // the tail a follower streams
			}
			i := 0
			for ref[i].lsn < from {
				i++
			}
			err := l.ReadRange(from, to, func(lsn uint64, typ RecordType, body []byte) error {
				if i >= len(ref) || ref[i].lsn > to {
					return fmt.Errorf("extra record lsn %d", lsn)
				}
				if w := ref[i]; lsn != w.lsn || typ != w.typ || !bytes.Equal(body, w.body) {
					return fmt.Errorf("got lsn %d type %d (%d bytes), full scan has lsn %d type %d (%d bytes)",
						lsn, typ, len(body), w.lsn, w.typ, len(w.body))
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatalf("step %d: ReadRange(%d,%d): %v", step, from, to, err)
			}
			if i == 0 || ref[i-1].lsn != to {
				t.Fatalf("step %d: ReadRange(%d,%d) stopped before %d", step, from, to, to)
			}
		}
		if oldest > 1 {
			var re *ReapedError
			err := l.ReadRange(oldest-1, newest, func(uint64, RecordType, []byte) error { return nil })
			if !errors.As(err, &re) || re.First != oldest {
				t.Fatalf("step %d: ReadRange below the oldest lsn %d = %v, want *ReapedError", step, oldest, err)
			}
		}
	}
}

// TestReadRangeSeeksConcurrentWithAppend is the concurrent contract of
// stream_test.go on a segment long enough to hold many index entries:
// reads bounded by the durable watermark seek into the middle of the
// active segment while appends extend it and its index.
func TestReadRangeSeeksConcurrentWithAppend(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{Policy: SyncBatch, SegmentBytes: 256 << 10})
	const total = 600
	body := func(i uint64) []byte {
		return bytes.Repeat([]byte{byte(i)}, 1000+int(i%7))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= total; i++ {
			lsn, err := l.Append(body(i))
			if err != nil {
				t.Error(err)
				return
			}
			if err := l.WaitDurable(lsn); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for read := uint64(0); read < total && !t.Failed(); {
		hi := l.SyncedLSN()
		if hi <= read {
			continue
		}
		next := read + 1
		err := l.ReadRange(next, hi, func(lsn uint64, typ RecordType, got []byte) error {
			if lsn != next || !bytes.Equal(got, body(lsn)) {
				return fmt.Errorf("got lsn %d (%d bytes), want lsn %d", lsn, len(got), next)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		read = hi
	}
	wg.Wait()
}

// TestIndexBoundedUnderTombstones: entries are spaced by bytes, so the
// smallest frames there are cannot grow the index past one entry per
// indexStride of segment.
func TestIndexBoundedUnderTombstones(t *testing.T) {
	const segBytes = 64 << 10
	l := openTest(t, t.TempDir(), Options{Policy: SyncNone, SegmentBytes: segBytes})
	peak := 0
	for l.Stats().Rotations < 2 {
		for i := 0; i < 500; i++ {
			if _, err := l.AppendTombstone(1); err != nil {
				t.Fatal(err)
			}
			l.mu.Lock()
			n, size := len(l.index), l.fSize
			l.mu.Unlock()
			if max := int(size/indexStride) + 1; n > max {
				t.Fatalf("%d index entries for %d bytes of segment, want at most %d", n, size, max)
			}
			if n > peak {
				peak = n
			}
		}
	}
	if peak < segBytes/indexStride/2 {
		t.Fatalf("index peaked at %d entries over a %d-byte segment: tombstones are not being indexed", peak, segBytes)
	}
}

func TestFirstLSNFromName(t *testing.T) {
	for _, lsn := range []uint64{0, 1, 42, 1 << 32, math.MaxUint64} {
		// Every name the log (and FuzzWALBitFlip's template) writes.
		if got, ok := firstLSNFromName(segmentName(lsn)); !ok || got != lsn {
			t.Errorf("firstLSNFromName(%q) = %d, %v, want %d", segmentName(lsn), got, ok, lsn)
		}
	}
	for _, tc := range []struct {
		name   string
		sscanf bool // what the fmt.Sscanf this parser replaced said
	}{
		{"", false},
		{"wal-.seg", false},
		{"wal-0000000000000000000x.seg", false},
		{"wal-0000000000000000_001.seg", false},
		{"wal--0000000000000000001.seg", false},
		{"wal-+0000000000000000001.seg", false},
		{"wal-99999999999999999999.seg", false}, // past uint64
		{"wal-000000000000000000001.seg", false},
		{"wal-00000000000000000001.tmp", false},
		{"WAL-00000000000000000001.seg", false},
		{"snap-00000000000000000001.seg", false},
		// Names the log never writes. Sscanf's %020d is a maximum width,
		// skips leading blanks and stops at the suffix; the parser wants
		// the exact form, so a stray file cannot pass for a segment.
		{"wal-1.seg", true},
		{"wal- 0000000000000000001.seg", true},
		{"wal-00000000000000000001.seg.seg", true},
	} {
		var lsn uint64
		if _, err := fmt.Sscanf(tc.name, segPrefix+"%020d.seg", &lsn); (err == nil) != tc.sscanf {
			t.Errorf("Sscanf(%q) accepted = %v, table says %v", tc.name, err == nil, tc.sscanf)
		}
		if got, ok := firstLSNFromName(tc.name); ok {
			t.Errorf("firstLSNFromName(%q) = %d, true, want a reject", tc.name, got)
		}
	}
}

var benchBody = bytes.Repeat([]byte(`{"node":17,"job":42,"t":1700000000,"w":151.25},`), 512) // ≈ 24 KB, one ingest batch

func BenchmarkAppend(b *testing.B) {
	l, err := Open(b.TempDir(), Options{Policy: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.SetBytes(int64(len(benchBody)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(benchBody); err != nil {
			b.Fatal(err)
		}
	}
}

// fillSegment appends benchBody until one segment of segBytes is 90 %
// full and returns the last LSN.
func fillSegment(b *testing.B, l *Log, segBytes int) (last uint64) {
	for n := 0; n < segBytes*9/10; n += frameHeaderSize + len(benchBody) {
		var err error
		if last, err = l.Append(benchBody); err != nil {
			b.Fatal(err)
		}
	}
	return last
}

// BenchmarkReadRangeTail reads the newest record of a 90 %-full 8 MiB
// segment: what the replication source does for every burst it streams.
func BenchmarkReadRangeTail(b *testing.B) {
	const segBytes = 8 << 20
	l, err := Open(b.TempDir(), Options{Policy: SyncNone, SegmentBytes: segBytes})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	last := fillSegment(b, l, segBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.ReadRange(last, last, func(uint64, RecordType, []byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay is one full scan of that segment, which Recover does
// three times (Open, tombstone pass, apply pass).
func BenchmarkReplay(b *testing.B) {
	const segBytes = 8 << 20
	l, err := Open(b.TempDir(), Options{Policy: SyncNone, SegmentBytes: segBytes})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	last := fillSegment(b, l, segBytes)
	b.SetBytes(int64(last) * int64(frameHeaderSize+len(benchBody)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records := uint64(0)
		err := l.Replay(func(uint64, RecordType, []byte) error { records++; return nil })
		if err != nil || records != last {
			b.Fatalf("replayed %d of %d records: %v", records, last, err)
		}
	}
}
