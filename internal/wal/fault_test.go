package wal

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"hpcpower/internal/vfs"
)

// openFaultLog opens a log through a zero-fault FaultFS so tests can
// flip faults on mid-flight with Configure without faulting Open's own
// recovery I/O.
func openFaultLog(t *testing.T, dir string, opts Options) (*Log, *vfs.FaultFS) {
	t.Helper()
	ffs := vfs.NewFault(vfs.OS, vfs.FaultConfig{})
	opts.FS = ffs
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, ffs
}

// TestFsyncFailureNeverAcked is the fsyncgate acceptance test: once a
// group-commit fsync fails, no LSN it covered may ever be acked — not
// by the failing WaitDurable, not by a later retry after the disk
// "recovers". The kernel may have dropped the dirty pages on the floor,
// so a retried fsync that succeeds proves nothing; the only safe state
// is a permanently poisoned log.
func TestFsyncFailureNeverAcked(t *testing.T) {
	dir := t.TempDir()
	l, ffs := openFaultLog(t, dir, Options{Policy: SyncBatch})

	good, err := l.Append([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(good); err != nil {
		t.Fatalf("healthy WaitDurable: %v", err)
	}

	ffs.Configure(func(c *vfs.FaultConfig) { c.SyncErrProb = 1 })
	doomed, err := l.Append([]byte("doomed"))
	if err != nil {
		t.Fatalf("append (write path is healthy): %v", err)
	}
	if err := l.WaitDurable(doomed); err == nil {
		t.Fatal("WaitDurable acked an LSN whose fsync failed")
	}

	// The disk "recovers" — and it must not matter. The pages covering
	// `doomed` may already be gone; re-fsync-and-ack is the bug.
	ffs.Configure(func(c *vfs.FaultConfig) { c.SyncErrProb = 0 })
	if err := l.WaitDurable(doomed); err == nil {
		t.Fatal("WaitDurable acked a poisoned LSN after the disk recovered")
	}
	if _, err := l.Append([]byte("late")); err == nil {
		t.Fatal("Append succeeded on a poisoned log")
	}
	if l.Err() == nil {
		t.Fatal("Err() = nil on a poisoned log")
	}
	if !l.Stats().Poisoned {
		t.Fatal("Stats().Poisoned = false on a poisoned log")
	}
}

// TestAppendENOSPCRollsBackWithoutPoison: a failed frame *write* (as
// opposed to a failed fsync) is rolled back off the tail, so transient
// ENOSPC surfaces to the caller without condemning the log, and appends
// resume cleanly once space frees.
func TestAppendENOSPCRollsBackWithoutPoison(t *testing.T) {
	dir := t.TempDir()
	l, ffs := openFaultLog(t, dir, Options{Policy: SyncBatch})

	keep, err := l.Append([]byte("keep"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(keep); err != nil {
		t.Fatal(err)
	}

	ffs.Configure(func(c *vfs.FaultConfig) { c.WriteBudget = 1 })
	if _, err := l.Append([]byte("no space")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Append under ENOSPC = %v, want ENOSPC", err)
	}
	if l.Err() != nil {
		t.Fatalf("transient ENOSPC poisoned the log: %v", l.Err())
	}

	ffs.Configure(func(c *vfs.FaultConfig) { c.WriteBudget = 0 })
	after, err := l.Append([]byte("after"))
	if err != nil {
		t.Fatalf("append after space freed: %v", err)
	}
	if after != keep+1 {
		t.Fatalf("lsn after recovery = %d, want %d (failed append must not consume an LSN)", after, keep+1)
	}
	if err := l.WaitDurable(after); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := openTest(t, dir, Options{Policy: SyncBatch})
	lsns, _, bodies := collect(t, reopened)
	wantBodies := [][]byte{[]byte("keep"), []byte("after")}
	if len(bodies) != len(wantBodies) {
		t.Fatalf("replayed %d records, want %d", len(bodies), len(wantBodies))
	}
	for i := range wantBodies {
		if !bytes.Equal(bodies[i], wantBodies[i]) {
			t.Fatalf("record %d = %q, want %q", i, bodies[i], wantBodies[i])
		}
		if lsns[i] != uint64(i+1) {
			t.Fatalf("lsn[%d] = %d, want %d", i, lsns[i], i+1)
		}
	}
}

// TestClosePoisonsBeforeClosed: a failed final fsync in Close must both
// return the error and leave the log observably poisoned — Err() set —
// rather than reporting a clean close. (Regression: Close used to set
// closed=true without recording the sync failure, so callers who check
// Err() after Close saw a healthy log whose tail was never durable.)
func TestClosePoisonsBeforeClosed(t *testing.T) {
	dir := t.TempDir()
	l, ffs := openFaultLog(t, dir, Options{Policy: SyncBatch})

	if _, err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	ffs.Configure(func(c *vfs.FaultConfig) { c.SyncErrProb = 1 })
	if err := l.Close(); err == nil {
		t.Fatal("Close reported success despite the final fsync failing")
	}
	if l.Err() == nil {
		t.Fatal("Err() = nil after a failed Close — poison must land before closed=true")
	}
}

// TestSnapshotWriteFailureKeepsPrevious: a snapshot write that dies
// mid-flight (EIO or ENOSPC) must leave the previous snapshot intact,
// leave zero .tmp litter behind, and recovery must fall back to the
// surviving snapshot.
func TestSnapshotWriteFailureKeepsPrevious(t *testing.T) {
	cases := []struct {
		name string
		cfg  vfs.FaultConfig
	}{
		{"eio", vfs.FaultConfig{WriteErrProb: 1, PathSubstring: snapPrefix}},
		{"enospc", vfs.FaultConfig{WriteBudget: 1, PathSubstring: snapPrefix}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFault(vfs.OS, vfs.FaultConfig{})
			goodPayload := []byte("state @ lsn 5")
			if err := WriteSnapshotFS(ffs, dir, 5, goodPayload); err != nil {
				t.Fatal(err)
			}

			cfg := tc.cfg
			ffs.Configure(func(c *vfs.FaultConfig) { *c = cfg })
			if err := WriteSnapshotFS(ffs, dir, 9, []byte("state @ lsn 9")); err == nil {
				t.Fatal("snapshot write succeeded under injected faults")
			}

			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("failed snapshot left tmp litter: %s", e.Name())
				}
			}

			lsn, payload, found, skipped, err := LatestSnapshotFS(vfs.OS, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !found || lsn != 5 || !bytes.Equal(payload, goodPayload) {
				t.Fatalf("LatestSnapshot = (lsn=%d found=%v payload=%q), want the surviving lsn-5 snapshot", lsn, found, payload)
			}
			if len(skipped) != 0 {
				t.Fatalf("skipped %v, want none (the failed write must not publish a corrupt snapshot)", skipped)
			}
		})
	}
}

// TestReadErrorIsNotATornTail: a read that fails says nothing about what
// is on disk. Open must refuse to start rather than truncate the log at
// the frame it could not read, and Replay must report the error rather
// than end early as if the log stopped there.
func TestReadErrorIsNotATornTail(t *testing.T) {
	dir := t.TempDir()
	l, ffs := openFaultLog(t, dir, Options{Policy: SyncNone})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Configure(func(c *vfs.FaultConfig) { c.ReadErrProb = 1 })
	err := l.Replay(func(uint64, RecordType, []byte) error { return nil })
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("Replay over failing reads: %v, want EIO", err)
	}
	l.Close()

	if _, err := Open(dir, Options{Policy: SyncNone, FS: ffs}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Open over failing reads: %v, want EIO", err)
	}
	ffs.Configure(func(c *vfs.FaultConfig) { c.ReadErrProb = 0 })
	l2, _ := openFaultLog(t, dir, Options{Policy: SyncNone})
	if st := l2.Stats(); st.RecoveredRecords != 5 || st.TruncatedBytes != 0 {
		t.Fatalf("after the failed Open: %d records, %d bytes truncated; want all 5 and none", st.RecoveredRecords, st.TruncatedBytes)
	}
}

// --- FuzzWALBitFlip -------------------------------------------------

var (
	walTemplateOnce   sync.Once
	walTemplateSeg    []byte   // raw bytes of the single sealed segment
	walTemplateName   string   // segment file name
	walTemplateBodies [][]byte // canonical record bodies, in LSN order
	walTemplateErr    error
)

// buildWALTemplate appends a deterministic set of records, every fourth
// followed by a tombstone, into a single-segment log (the default 64 MiB rotation threshold keeps
// everything in one file) and captures the segment bytes. Fuzz workers
// share it read-only.
func buildWALTemplate() {
	dir, err := os.MkdirTemp("", "walfuzz-template-")
	if err != nil {
		walTemplateErr = err
		return
	}
	defer os.RemoveAll(dir)
	l, err := Open(dir, Options{Policy: SyncBatch})
	if err != nil {
		walTemplateErr = err
		return
	}
	for i := 0; i < 24; i++ {
		body := []byte(fmt.Sprintf("record-%02d:%s", i, strings.Repeat("x", i*7%40)))
		walTemplateBodies = append(walTemplateBodies, body)
		lsn, err := l.Append(body)
		if err != nil {
			walTemplateErr = err
			return
		}
		if err := l.WaitDurable(lsn); err != nil {
			walTemplateErr = err
			return
		}
		if i%4 == 3 {
			// Cancel the record before last, so recovery has tombstones to
			// account for.
			walTemplateBodies = append(walTemplateBodies, tombstoneBody(lsn-1))
			if _, err := l.AppendTombstone(lsn - 1); err != nil {
				walTemplateErr = err
				return
			}
		}
	}
	if err := l.Close(); err != nil {
		walTemplateErr = err
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		walTemplateErr = err
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), segPrefix) && strings.HasSuffix(e.Name(), ".seg") {
			if walTemplateName != "" {
				walTemplateErr = fmt.Errorf("template log rotated: more than one segment")
				return
			}
			walTemplateName = e.Name()
			walTemplateSeg, walTemplateErr = os.ReadFile(filepath.Join(dir, e.Name()))
			if walTemplateErr != nil {
				return
			}
		}
	}
	if walTemplateName == "" {
		walTemplateErr = fmt.Errorf("template log produced no segment file")
	}
}

// FuzzWALBitFlip corrupts one byte of a sealed segment at an arbitrary
// offset and re-opens the log. Recovery must never panic, and replay
// must surface an exact prefix of the original records — never a record
// at or past the corruption, never a record with altered content — and
// the tombstones Open collected are exactly the ones that replay sees.
// (CRC32-C over type‖body catches any single-byte flip in a frame; a
// flip in the 16-byte segment header either invalidates the magic —
// dropping the whole segment — or shifts the base LSN, which the lsn
// monotonicity check below still constrains.)
//
// Then the log starts over gap LSNs past the template's last, as a
// restart does over a log that ends below its snapshot: the records
// appended after StartAt replay intact across a reopen, and a read from
// below the start point is refused as reaped.
func FuzzWALBitFlip(f *testing.F) {
	f.Add(uint32(0), uint8(0x01), uint8(0))   // segment magic
	f.Add(uint32(8), uint8(0x80), uint8(0))   // base LSN in the header
	f.Add(uint32(16), uint8(0xff), uint8(0))  // first frame's length field
	f.Add(uint32(20), uint8(0x10), uint8(0))  // first frame's CRC
	f.Add(uint32(25), uint8(0x01), uint8(0))  // first frame's body
	f.Add(uint32(200), uint8(0x40), uint8(0)) // somewhere mid-log
	f.Add(uint32(200), uint8(0x40), uint8(7)) // mid-log, started past a gap
	f.Add(uint32(9), uint8(0x02), uint8(1))   // an emptied log, started past the template
	f.Add(uint32(1<<20), uint8(0x04), uint8(255))
	f.Fuzz(func(t *testing.T, off uint32, mask, gap uint8) {
		walTemplateOnce.Do(buildWALTemplate)
		if walTemplateErr != nil {
			t.Fatalf("building template log: %v", walTemplateErr)
		}
		if mask == 0 {
			mask = 0xff // a zero mask flips nothing — make every input corrupt
		}
		pos := int(off) % len(walTemplateSeg)

		dir := t.TempDir()
		seg := append([]byte(nil), walTemplateSeg...)
		seg[pos] ^= mask
		if err := os.WriteFile(filepath.Join(dir, walTemplateName), seg, 0o644); err != nil {
			t.Fatal(err)
		}

		l, err := Open(dir, Options{Policy: SyncBatch})
		if err != nil {
			// Refusing to open corrupt state is acceptable; serving it is not.
			return
		}
		defer l.Close()
		var lsns []uint64
		var got [][]byte
		cancelled := map[uint64]struct{}{}
		err = l.Replay(func(lsn uint64, typ RecordType, body []byte) error {
			lsns = append(lsns, lsn)
			got = append(got, append([]byte(nil), body...))
			if typ == RecordTombstone {
				cancelled[DecodeTombstone(body)] = struct{}{}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("replay after recovery must be clean (recovery should have truncated): %v", err)
		}
		if open := cancelledSet(l); !maps.Equal(open, cancelled) {
			t.Fatalf("Open reports tombstones %v, replay of the recovered log sees %v", open, cancelled)
		}
		if len(got) > len(walTemplateBodies) {
			t.Fatalf("replay surfaced %d records, template only had %d", len(got), len(walTemplateBodies))
		}
		for i := range got {
			if !bytes.Equal(got[i], walTemplateBodies[i]) {
				t.Fatalf("record %d: got %q, want %q — corruption surfaced as data", i, got[i], walTemplateBodies[i])
			}
		}
		for i := 1; i < len(lsns); i++ {
			if lsns[i] != lsns[i-1]+1 {
				t.Fatalf("replayed LSNs not contiguous: %d then %d", lsns[i-1], lsns[i])
			}
		}
		// A flip inside frame i (or anywhere before it) must prevent
		// records i..n from surfacing. Frames start after the 16-byte
		// header; walk the template to find the first frame the flipped
		// byte touches.
		if pos >= segHeaderSize {
			idx, frameStart := 0, segHeaderSize
			for idx < len(walTemplateBodies) {
				frameLen := frameHeaderSize + len(walTemplateBodies[idx])
				if pos < frameStart+frameLen {
					break
				}
				frameStart += frameLen
				idx++
			}
			if len(got) > idx {
				t.Fatalf("flip at offset %d lands in frame %d, yet %d records survived replay", pos, idx, len(got))
			}
		}

		next := uint64(len(walTemplateBodies)) + 1 + uint64(gap)
		if err := l.StartAt(next); err != nil {
			t.Fatalf("StartAt(%d) over a log ending at lsn %d: %v", next, l.LastLSN(), err)
		}
		appended := [][]byte{[]byte("after-0"), {}, []byte("after-2")}
		for i, body := range appended {
			if lsn, err := l.Append(body); err != nil || lsn != next+uint64(i) {
				t.Fatalf("append after StartAt(%d): lsn %d, %v; want lsn %d", next, lsn, err, next+uint64(i))
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir, Options{Policy: SyncBatch})
		if err != nil {
			t.Fatalf("reopening after StartAt: %v", err)
		}
		defer l.Close()
		var after [][]byte
		err = l.Replay(func(lsn uint64, typ RecordType, body []byte) error {
			if want := next + uint64(len(after)); lsn != want || typ != RecordData {
				return fmt.Errorf("replayed lsn %d type %d, want lsn %d data", lsn, typ, want)
			}
			after = append(after, append([]byte(nil), body...))
			return nil
		})
		if err != nil || len(after) != len(appended) {
			t.Fatalf("replay after StartAt(%d) and a reopen: %d of %d records (%v)", next, len(after), len(appended), err)
		}
		for i := range appended {
			if !bytes.Equal(after[i], appended[i]) {
				t.Fatalf("record %d after StartAt: got %q, want %q", next+uint64(i), after[i], appended[i])
			}
		}
		var reaped *ReapedError
		if err := l.ReadRange(1, l.LastLSN(), func(uint64, RecordType, []byte) error { return nil }); !errors.As(err, &reaped) || reaped.First != next {
			t.Fatalf("ReadRange from lsn 1 after StartAt(%d): %v, want a *ReapedError naming %d", next, err, next)
		}
	})
}
