package wal

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hpcpower/internal/vfs"
)

// cancelledSet copies the set Cancelled answers from.
func cancelledSet(l *Log) map[uint64]struct{} {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	return maps.Clone(l.cancelled)
}

// replayTombstones is the set a full Replay collects: what Open must
// seed Cancelled with without that pass.
func replayTombstones(t testing.TB, l *Log) map[uint64]struct{} {
	t.Helper()
	set := map[uint64]struct{}{}
	err := l.Replay(func(_ uint64, typ RecordType, body []byte) error {
		if typ == RecordTombstone {
			set[DecodeTombstone(body)] = struct{}{}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// writeCancellingLog fills dir with 30 data records in small segments,
// every third one cancelled by a tombstone two records later, and returns
// the segment names.
func writeCancellingLog(t *testing.T, dir string) []string {
	t.Helper()
	l, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var pending []uint64
	for i := 0; i < 30; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%02d-padding-padding", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			pending = append(pending, lsn)
		}
		if i%3 == 2 {
			if _, err := l.AppendTombstone(pending[0]); err != nil {
				t.Fatal(err)
			}
			pending = pending[1:]
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("want at least 4 segments, got %d", len(segs))
	}
	return segs
}

// TestOpenCollectsTombstones: the set Open's scan seeds is the set a
// Replay of the log it kept collects — all of it on a clean log, the
// part before the tear on a torn tail, and nothing of a segment dropped
// for a continuity break (nor of those behind it).
func TestOpenCollectsTombstones(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string, segs []string)
		// kept is how many of the ten tombstones survive, when known.
		kept int
	}{
		{"clean", func(*testing.T, string, []string) {}, 10},
		{"torn tail", func(t *testing.T, dir string, segs []string) {
			// Cut the last segment that holds a tombstone inside its last
			// tombstone frame: the ones before the tear must be kept.
			for i := len(segs) - 1; i >= 0; i-- {
				path := filepath.Join(dir, segs[i])
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				var lastType RecordType
				_, _, valid, err := scanSegment(f, func(typ RecordType, _ []byte) error {
					lastType = typ
					return nil
				})
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				if lastType != RecordTombstone {
					if err := os.Remove(path); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := os.Truncate(path, valid-3); err != nil {
					t.Fatal(err)
				}
				return
			}
			t.Fatal("no segment ends in a tombstone")
		}, -1},
		{"continuity break", func(t *testing.T, dir string, segs []string) {
			// The second segment's name no longer matches its header.
			first, _ := firstLSNFromName(segs[1])
			if err := os.Rename(filepath.Join(dir, segs[1]), filepath.Join(dir, segmentName(first+1))); err != nil {
				t.Fatal(err)
			}
		}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			segs := writeCancellingLog(t, dir)
			ref := openTest(t, dir, Options{Policy: SyncNone})
			all := replayTombstones(t, ref)
			ref.Close()
			if len(all) != 10 {
				t.Fatalf("the log holds %d tombstones, want 10", len(all))
			}
			tc.damage(t, dir, segs)

			l := openTest(t, dir, Options{Policy: SyncNone})
			got, want := cancelledSet(l), replayTombstones(t, l)
			if !maps.Equal(got, want) {
				t.Fatalf("Open reports %v, a replay of the kept log sees %v", got, want)
			}
			switch {
			case tc.kept >= 0 && len(got) != tc.kept:
				t.Fatalf("%d tombstones kept, want %d", len(got), tc.kept)
			case tc.kept < 0 && (len(got) == 0 || len(got) >= len(all)):
				t.Fatalf("%d of %d tombstones kept, want some but not all", len(got), len(all))
			}
			if tc.name == "continuity break" && l.Stats().DroppedSegments == 0 {
				t.Fatal("no segment was dropped")
			}
		})
	}
}

// TestCancelledLifecycle: Cancelled answers from Open's scan, from every
// AppendTombstone since (from before its write: a tombstone that could
// not be written still cancels), and forgets what Reap deletes.
func TestCancelledLifecycle(t *testing.T) {
	dir := t.TempDir()
	writeCancellingLog(t, dir)
	l := openTest(t, dir, Options{Policy: SyncNone, SegmentBytes: 256})
	seeded := cancelledSet(l)
	for lsn := range seeded {
		if !l.Cancelled(lsn) {
			t.Fatalf("lsn %d: cancelled on disk, Cancelled says no", lsn)
		}
	}
	last, err := l.Append([]byte("record-30-padding-padding"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Cancelled(last) {
		t.Fatalf("lsn %d cancelled before its tombstone", last)
	}
	if _, err := l.AppendTombstone(last); err != nil {
		t.Fatal(err)
	}
	if !l.Cancelled(last) {
		t.Fatalf("lsn %d not cancelled after its tombstone", last)
	}

	removed, err := l.Reap(l.LastLSN())
	if err != nil {
		t.Fatal(err)
	}
	first, err := l.FirstLSN()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || first <= 1 {
		t.Fatalf("reap removed %d segments, first lsn %d: the test needs a rotation", removed, first)
	}
	for lsn := range seeded {
		if got, want := l.Cancelled(lsn), lsn >= first; got != want {
			t.Fatalf("lsn %d with lsns from %d on disk: Cancelled %v, want %v", lsn, first, got, want)
		}
	}
	if !l.Cancelled(last) {
		t.Fatalf("reap dropped the cancellation of lsn %d, still on disk", last)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendTombstone(last - 1); err == nil {
		t.Fatal("tombstone appended to a closed log")
	}
	if !l.Cancelled(last - 1) {
		t.Fatalf("lsn %d: a tombstone that failed to write does not cancel", last-1)
	}
}

// TestCancelledConcurrent: the replication stream asks Cancelled while
// appends, tombstones and reaps run (a check for the race detector; the
// answers are TestCancelledLifecycle's).
func TestCancelledConcurrent(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{Policy: SyncNone, SegmentBytes: 512})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for lsn := uint64(1); lsn <= l.LastLSN(); lsn++ {
				l.Cancelled(lsn)
			}
			if _, err := l.Reap(l.LastLSN()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		lsn, err := l.Append([]byte("record-padding-padding"))
		if err == nil {
			_, err = l.AppendTombstone(lsn)
		}
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
