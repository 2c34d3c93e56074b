package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hpcpower/internal/vfs"
)

// fillLog appends n small records and syncs, returning the last LSN.
func fillLog(t *testing.T, l *Log, n int) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return last
}

func TestReadRangeAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: ~16-byte bodies rotate every few records.
	l := openTest(t, dir, Options{Policy: SyncNone, SegmentBytes: 128})
	last := fillLog(t, l, 50)
	if last != 50 {
		t.Fatalf("last lsn = %d, want 50", last)
	}
	if segs, _ := listSegments(vfs.OS, dir); len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}

	for _, tc := range []struct{ from, to uint64 }{
		{1, 50}, {1, 1}, {17, 33}, {50, 50}, {49, 50}, {2, 49},
	} {
		var got []uint64
		err := l.ReadRange(tc.from, tc.to, func(lsn uint64, typ RecordType, body []byte) error {
			got = append(got, lsn)
			want := fmt.Sprintf("record-%04d", lsn-1)
			if string(body) != want {
				return fmt.Errorf("lsn %d body %q, want %q", lsn, body, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ReadRange(%d,%d): %v", tc.from, tc.to, err)
		}
		wantN := int(tc.to - tc.from + 1)
		if len(got) != wantN {
			t.Fatalf("ReadRange(%d,%d) yielded %d records, want %d", tc.from, tc.to, len(got), wantN)
		}
		for i, lsn := range got {
			if lsn != tc.from+uint64(i) {
				t.Fatalf("ReadRange(%d,%d)[%d] = %d, out of order", tc.from, tc.to, i, lsn)
			}
		}
	}

	// Empty and inverted ranges are no-ops.
	if err := l.ReadRange(10, 9, func(uint64, RecordType, []byte) error {
		t.Fatal("callback on empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Reading past the end is the caller's bug and must be loud, not a
	// silent short read.
	if err := l.ReadRange(48, 60, func(uint64, RecordType, []byte) error { return nil }); err == nil {
		t.Fatal("ReadRange past LastLSN succeeded")
	}
}

// TestReadRangeStopsAtDamage: a frame damaged after Open ends a read
// with the damage's error, and no record past it is delivered: the next
// segment's records would not follow on from the last one read.
func TestReadRangeStopsAtDamage(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncNone, SegmentBytes: 64})
	last := fillLog(t, l, 12)
	segs, _ := listSegments(vfs.OS, dir)
	if len(segs) < 3 {
		t.Fatalf("%d segments, want at least 3", len(segs))
	}
	path := filepath.Join(dir, segs[1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+frameHeaderSize+1] ^= 0xff // the first record's body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged, _ := firstLSNFromName(segs[1])
	var got []uint64
	err = l.ReadRange(1, last, func(lsn uint64, _ RecordType, _ []byte) error {
		got = append(got, lsn)
		return nil
	})
	var ce *CorruptError
	if !errors.As(err, &ce) || uint64(len(got)) != damaged-1 || got[len(got)-1] != damaged-1 {
		t.Fatalf("ReadRange(1, %d) over damaged lsn %d delivered %v, err %v; want lsns 1–%d and a *CorruptError", last, damaged, got, err, damaged-1)
	}
}

func TestReadRangeReapedReturnsTypedError(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncNone, SegmentBytes: 128})
	last := fillLog(t, l, 40)
	if _, err := l.Reap(last); err != nil {
		t.Fatal(err)
	}
	first, err := l.FirstLSN()
	if err != nil {
		t.Fatal(err)
	}
	if first <= 1 {
		t.Fatalf("reap kept everything (first=%d); segment sizing is off", first)
	}
	err = l.ReadRange(1, last, func(uint64, RecordType, []byte) error { return nil })
	var re *ReapedError
	if !errors.As(err, &re) {
		t.Fatalf("ReadRange over reaped lsns = %v, want *ReapedError", err)
	}
	if re.Requested != 1 || re.First != first {
		t.Fatalf("ReapedError{Requested:%d First:%d}, want {1 %d}", re.Requested, re.First, first)
	}
	// The surviving suffix is still readable.
	n := 0
	if err := l.ReadRange(first, last, func(uint64, RecordType, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != int(last-first+1) {
		t.Fatalf("read %d surviving records, want %d", n, last-first+1)
	}
}

func TestReapHoldsPinSegments(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncNone, SegmentBytes: 128})
	last := fillLog(t, l, 40)

	// A follower stuck at LSN 5 pins every later segment.
	l.SetReapHold("follower-a", 5)
	if removed, err := l.Reap(last); err != nil {
		t.Fatal(err)
	} else if removed != 0 {
		t.Fatalf("reap removed %d segments despite a hold at 5", removed)
	}
	if err := l.ReadRange(6, last, func(uint64, RecordType, []byte) error { return nil }); err != nil {
		t.Fatalf("held records unreadable: %v", err)
	}

	// Advancing the hold releases coverage.
	l.SetReapHold("follower-a", last)
	if removed, err := l.Reap(last); err != nil {
		t.Fatal(err)
	} else if removed == 0 {
		t.Fatal("reap removed nothing after the hold advanced")
	}
}

func TestFirstAndSyncedLSN(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncBatch})
	first, err := l.FirstLSN()
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("fresh log FirstLSN = %d, want 1", first)
	}
	lsn, err := l.Append([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedLSN(); got != lsn {
		t.Fatalf("SyncedLSN = %d, want %d", got, lsn)
	}
}

// TestReadRangeConcurrentWithAppend exercises the contract replication
// relies on: reads bounded by the durable watermark race appends safely.
func TestReadRangeConcurrentWithAppend(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncBatch, SegmentBytes: 256})
	const total = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			lsn, err := l.Append([]byte(fmt.Sprintf("record-%04d", i)))
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

	read := uint64(0) // next LSN to read
	for read < total {
		hi := l.SyncedLSN()
		if hi <= read {
			continue
		}
		err := l.ReadRange(read+1, hi, func(lsn uint64, typ RecordType, body []byte) error {
			want := fmt.Sprintf("record-%04d", lsn-1)
			if string(body) != want {
				return fmt.Errorf("lsn %d body %q, want %q", lsn, body, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		read = hi
	}
	wg.Wait()
}
