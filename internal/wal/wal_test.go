package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hpcpower/internal/vfs"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func collect(t *testing.T, l *Log) (lsns []uint64, types []RecordType, bodies [][]byte) {
	t.Helper()
	err := l.Replay(func(lsn uint64, typ RecordType, body []byte) error {
		lsns = append(lsns, lsn)
		types = append(types, typ)
		bodies = append(bodies, append([]byte(nil), body...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncBatch})
	want := [][]byte{[]byte("alpha"), []byte("beta"), []byte(""), []byte("gamma")}
	for i, b := range want {
		lsn, err := l.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	lsns, _, bodies := collect(t, l)
	if len(bodies) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(bodies), len(want))
	}
	for i := range want {
		if lsns[i] != uint64(i+1) || !bytes.Equal(bodies[i], want[i]) {
			t.Fatalf("record %d: lsn %d body %q, want lsn %d body %q",
				i, lsns[i], bodies[i], i+1, want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: records survive, LSNs continue.
	l2 := openTest(t, dir, Options{Policy: SyncBatch})
	if got := l2.Stats().RecoveredRecords; got != int64(len(want)) {
		t.Fatalf("recovered %d records, want %d", got, len(want))
	}
	lsn, err := l2.Append([]byte("delta"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(len(want)+1) {
		t.Fatalf("post-reopen lsn = %d, want %d", lsn, len(want)+1)
	}
}

func TestTombstoneRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncNone})
	d1, _ := l.Append([]byte("kept"))
	d2, _ := l.Append([]byte("cancelled"))
	ts, err := l.AppendTombstone(d2)
	if err != nil {
		t.Fatal(err)
	}
	if ts != d2+1 {
		t.Fatalf("tombstone lsn = %d, want %d", ts, d2+1)
	}
	_, types, bodies := collect(t, l)
	if types[2] != RecordTombstone {
		t.Fatalf("record 3 type = %d, want tombstone", types[2])
	}
	if got := DecodeTombstone(bodies[2]); got != d2 {
		t.Fatalf("tombstone cancels %d, want %d", got, d2)
	}
	if types[0] != RecordData || DecodeTombstone(bodies[2]) == d1 {
		t.Fatal("data record misclassified")
	}
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncBatch})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	l.Close()

	// Tear the tail: append half a frame of garbage, as a crash
	// mid-append would leave.
	segs, _ := listSegments(vfs.OS, dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0xde, 0xad, 0xbe}
	f.Write(garbage)
	f.Close()

	l2 := openTest(t, dir, Options{Policy: SyncBatch})
	st := l2.Stats()
	if st.RecoveredRecords != 10 {
		t.Fatalf("recovered %d records, want 10", st.RecoveredRecords)
	}
	if st.TruncatedBytes != int64(len(garbage)) {
		t.Fatalf("truncated %d bytes, want %d", st.TruncatedBytes, len(garbage))
	}
	// The log must be appendable exactly where it left off.
	lsn, err := l2.Append([]byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("lsn after truncation = %d, want 11", lsn)
	}
	_, _, bodies := collect(t, l2)
	if len(bodies) != 11 || string(bodies[10]) != "after" {
		t.Fatalf("replay after truncation: %d records", len(bodies))
	}
}

func TestCorruptFrameTruncatesAndDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several files.
	l := openTest(t, dir, Options{Policy: SyncNone, SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(vfs.OS, dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}

	// Flip a byte inside the second segment's first frame body.
	path := filepath.Join(dir, segs[1])
	data, _ := os.ReadFile(path)
	data[segHeaderSize+frameHeaderSize+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir, Options{Policy: SyncNone})
	st := l2.Stats()
	if st.DroppedSegments != len(segs)-2 {
		t.Fatalf("dropped %d segments, want %d", st.DroppedSegments, len(segs)-2)
	}
	if st.TruncatedBytes == 0 {
		t.Fatal("no bytes truncated despite corruption")
	}
	// Replay yields exactly the records before the corrupt frame, in order.
	lsns, _, bodies := collect(t, l2)
	for i, b := range bodies {
		if want := fmt.Sprintf("record-%02d-padding-padding", i); string(b) != want {
			t.Fatalf("record %d = %q, want %q", i, b, want)
		}
		if lsns[i] != uint64(i+1) {
			t.Fatalf("lsn %d for record %d", lsns[i], i)
		}
	}
	if len(bodies) >= 20 || len(bodies) == 0 {
		t.Fatalf("replayed %d records, want a strict valid prefix", len(bodies))
	}
}

// TestNewerSegmentVersionIsNeverTruncated: a segment whose header names
// another version is a newer writer's log, not damage. Open refuses it
// by name and leaves every segment as it was.
func TestNewerSegmentVersionIsNeverTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncNone, SegmentBytes: 8 * (frameHeaderSize + 24)})
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d-padding-paddin", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(vfs.OS, dir)
	if len(segs) != 5 {
		t.Fatalf("want 5 segments, got %d", len(segs))
	}
	before := map[string][]byte{}
	for i, name := range segs {
		data, _ := os.ReadFile(filepath.Join(dir, name))
		if i == 0 {
			data[len(segMagic)-2] = '2'
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before[name] = data
	}

	_, err := Open(dir, Options{Policy: SyncNone})
	if want := "wal: scanning " + segs[0] + ": segment version 2, this build reads version 1"; err == nil || err.Error() != want {
		t.Fatalf("Open = %v, want %q", err, want)
	}
	after, _ := listSegments(vfs.OS, dir)
	if len(after) != len(segs) {
		t.Fatalf("%d segments left of %d", len(after), len(segs))
	}
	for name, want := range before {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed (err %v)", name, err)
		}
	}
}

func TestRotationAndReap(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncBatch, SegmentBytes: 256})
	var last uint64
	for i := 0; i < 40; i++ {
		lsn, err := l.Append(bytes.Repeat([]byte{byte(i)}, 32))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("rotations %d segments %d, want rotation to have happened", st.Rotations, st.Segments)
	}
	removed, err := l.Reap(last)
	if err != nil {
		t.Fatal(err)
	}
	if removed != st.Segments-1 {
		t.Fatalf("reaped %d segments, want %d (all but active)", removed, st.Segments-1)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("segments after reap = %d, want 1", got)
	}
	// LSNs keep increasing after reap + reopen.
	l.Close()
	l2 := openTest(t, dir, Options{Policy: SyncBatch})
	lsn, err := l2.Append([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != last+1 {
		t.Fatalf("lsn after reap+reopen = %d, want %d", lsn, last+1)
	}
}

// TestStartAtAfterLosingEverySegment: a log whose every segment is gone
// reopens empty at LSN 1, and StartAt moves it past a snapshot at LSN 5,
// so the next record gets LSN 6, and keeps it across a reopen.
func TestStartAtAfterLosingEverySegment(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncNone})
	for i := 0; i < 5; i++ {
		l.Append([]byte("r"))
	}
	l.Close()
	segs, _ := listSegments(vfs.OS, dir)
	for _, s := range segs {
		os.Remove(filepath.Join(dir, s))
	}
	l2 := openTest(t, dir, Options{Policy: SyncNone})
	if last := l2.LastLSN(); last != 0 {
		t.Fatalf("an empty directory opened at LastLSN %d, want 0", last)
	}
	if err := l2.StartAt(6); err != nil {
		t.Fatal(err)
	}
	if err := l2.StartAt(5); err == nil {
		t.Fatal("StartAt below LastLSN+1 succeeded")
	}
	lsn, err := l2.Append([]byte("next"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("lsn = %d, want 6 (past the snapshot)", lsn)
	}
	l2.Close()
	l3 := openTest(t, dir, Options{Policy: SyncNone})
	if first, err := l3.FirstLSN(); err != nil || first != 6 || l3.LastLSN() != 6 {
		t.Fatalf("reopened at lsns %d–%d (%v), want 6–6", first, l3.LastLSN(), err)
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncBatch})
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.Append([]byte(fmt.Sprintf("concurrent-%d", i)))
			if err == nil {
				err = l.WaitDurable(lsn)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != n {
		t.Fatalf("appends = %d, want %d", st.Appends, n)
	}
	if st.SyncedLSN != n {
		t.Fatalf("synced lsn = %d, want %d", st.SyncedLSN, n)
	}
	// Group commit must not fsync more than once per append (and under
	// contention it batches, but that is timing-dependent — assert only
	// the invariant).
	if st.Fsyncs > st.Appends {
		t.Fatalf("fsyncs %d > appends %d", st.Fsyncs, st.Appends)
	}
	_, _, bodies := collect(t, l)
	if len(bodies) != n {
		t.Fatalf("replayed %d, want %d", len(bodies), n)
	}
}

func TestSnapshotWriteLatestAndCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 10, []byte("state-at-10")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 20, []byte("state-at-20")); err != nil {
		t.Fatal(err)
	}
	lsn, payload, found, skipped, err := LatestSnapshot(dir)
	if err != nil || !found || len(skipped) != 0 {
		t.Fatalf("LatestSnapshot: lsn=%d found=%v skipped=%v err=%v", lsn, found, skipped, err)
	}
	if lsn != 20 || string(payload) != "state-at-20" {
		t.Fatalf("latest = (%d, %q), want (20, state-at-20)", lsn, payload)
	}

	// Corrupt the newest snapshot: recovery falls back to the previous.
	data, _ := os.ReadFile(filepath.Join(dir, snapshotName(20)))
	data[len(data)-1] ^= 0xff
	os.WriteFile(filepath.Join(dir, snapshotName(20)), data, 0o644)
	lsn, payload, found, skipped, err = LatestSnapshot(dir)
	if err != nil || !found {
		t.Fatalf("fallback failed: %v", err)
	}
	if lsn != 10 || string(payload) != "state-at-10" || len(skipped) != 1 || skipped[0].Name != snapshotName(20) {
		t.Fatalf("fallback = (%d, %q, skipped %v), want (10, state-at-10, %s)", lsn, payload, skipped, snapshotName(20))
	}

	// Reap keeps the newest.
	WriteSnapshot(dir, 30, []byte("state-at-30"))
	removed, err := ReapSnapshotsFS(vfs.OS, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("reaped %d snapshots, want 2", removed)
	}
	lsn, _, found, _, _ = LatestSnapshot(dir)
	if !found || lsn != 30 {
		t.Fatalf("after reap latest = %d, want 30", lsn)
	}
}

func TestNoSnapshotFound(t *testing.T) {
	_, _, found, _, err := LatestSnapshot(t.TempDir())
	if err != nil || found {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}
}

func TestLockDirFailFast(t *testing.T) {
	t.Run("missing dir", func(t *testing.T) {
		_, err := LockDirFS(vfs.OS, filepath.Join(t.TempDir(), "nope"))
		if err == nil || !errors.Is(err, err) || !contains(err.Error(), "does not exist") {
			t.Fatalf("want clear missing-dir error, got %v", err)
		}
	})
	t.Run("not a directory", func(t *testing.T) {
		f := filepath.Join(t.TempDir(), "file")
		os.WriteFile(f, []byte("x"), 0o644)
		if _, err := LockDirFS(vfs.OS, f); err == nil || !contains(err.Error(), "not a directory") {
			t.Fatalf("want not-a-directory error, got %v", err)
		}
	})
	t.Run("unwritable dir", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("running as root: permission bits are not enforced")
		}
		dir := t.TempDir()
		os.Chmod(dir, 0o500)
		defer os.Chmod(dir, 0o755)
		if _, err := LockDirFS(vfs.OS, dir); err == nil || !contains(err.Error(), "not writable") {
			t.Fatalf("want unwritable error, got %v", err)
		}
	})
}

func TestLockDirLiveAndStale(t *testing.T) {
	dir := t.TempDir()
	l1, err := LockDirFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Stale() {
		t.Fatal("fresh lock reported stale")
	}
	// flock treats separately opened descriptors independently even in
	// one process, so a second LockDirFS contends like a second daemon.
	if _, err := LockDirFS(vfs.OS, dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second lock: err = %v, want ErrLocked", err)
	} else if !contains(err.Error(), fmt.Sprint(os.Getpid())) {
		t.Fatalf("lock error does not name the holder pid: %v", err)
	}
	if err := l1.Unlock(); err != nil {
		t.Fatal(err)
	}

	// Stale lock: the file exists but no process holds the flock — as
	// after a SIGKILL. Acquisition must succeed and flag it.
	os.WriteFile(filepath.Join(dir, "LOCK"), []byte("999999\n"), 0o644)
	l2, err := LockDirFS(vfs.OS, dir)
	if err != nil {
		t.Fatalf("stale lock not taken over: %v", err)
	}
	defer l2.Unlock()
	if !l2.Stale() {
		t.Fatal("stale lock file not detected")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncNone})
	l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestOversizeRecordRefused(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncNone})
	if _, err := l.Append(make([]byte, maxBody+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
	// The log stays usable.
	if _, err := l.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestSyncIntervalPolicyDurable(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{Policy: SyncInterval, Interval: 5 * time.Millisecond})
	lsn, err := l.Append([]byte("interval"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil { // returns immediately under this policy
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().SyncedLSN < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("interval syncer never synced lsn %d", lsn)
		}
		time.Sleep(time.Millisecond)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
