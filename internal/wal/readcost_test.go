package wal

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"hpcpower/internal/vfs"
)

// countingFS counts the bytes every file it opens hands back from Read
// and ReadAt, so a test can state what an operation costs in bytes read
// instead of in wall-clock time.
type countingFS struct {
	vfs.FS
	read atomic.Int64
}

func (c *countingFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, read: &c.read}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, read: &c.read}, nil
}

type countingFile struct {
	vfs.File
	read *atomic.Int64
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.read.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

// TestReadRangeTailCostIsWhatItReads pins the point of the offset index:
// reading the newest record of a nearly full segment costs about that
// record, not the segment. The bound is in bytes read, so it holds on
// any machine; the scan-from-header ReadRange reads ~0.9 MiB here.
func TestReadRangeTailCostIsWhatItReads(t *testing.T) {
	const (
		segBytes = 1 << 20
		bodyLen  = 8 << 10
	)
	cfs := &countingFS{FS: vfs.OS}
	l := openTest(t, t.TempDir(), Options{Policy: SyncNone, SegmentBytes: segBytes, FS: cfs})
	body := make([]byte, bodyLen)
	for i := range body {
		body[i] = byte(i)
	}
	var last uint64
	for n := 0; n < segBytes*9/10; n += frameHeaderSize + bodyLen {
		var err error
		if last, err = l.Append(body); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Rotations != 0 {
		t.Fatalf("segment rotated (%d), the test wants one 90%%-full segment", st.Rotations)
	}

	cfs.read.Store(0)
	delivered := 0
	err := l.ReadRange(last, last, func(lsn uint64, typ RecordType, got []byte) error {
		delivered++
		if lsn != last || typ != RecordData || len(got) != bodyLen || got[bodyLen-1] != body[bodyLen-1] {
			t.Errorf("ReadRange delivered lsn %d type %d len %d, want lsn %d data len %d", lsn, typ, len(got), last, bodyLen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d records, want 1", delivered)
	}
	const budget = segHeaderSize + 2*(frameHeaderSize+bodyLen)
	if got := cfs.read.Load(); got > budget {
		t.Fatalf("ReadRange(last,last) on a 90%%-full %d-byte segment read %d bytes, want at most header + two frames = %d", segBytes, got, budget)
	}
}

// TestOpenIndexesActiveSegment: Open's scan leaves the active segment
// with the offset index its appends built, from the first record on, so
// a reopened log seeks into records written before it opened. After a
// torn tail it keeps the entries of the frames that survived.
func TestOpenIndexesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if i%7 == 3 {
			_, err = l.AppendTombstone(uint64(i))
		} else {
			_, err = l.Append(make([]byte, 100+(i*397)%3000))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	built, size, seg := slices.Clone(l.index), l.fSize, segmentName(l.segFirst)
	l.mu.Unlock()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(built) < 20 {
		t.Fatalf("appends built %d index entries, want a segment many strides long", len(built))
	}
	reopen := func() []indexEntry {
		t.Helper()
		l := openTest(t, dir, Options{Policy: SyncNone})
		l.mu.Lock()
		defer l.mu.Unlock()
		return slices.Clone(l.index)
	}
	if got := reopen(); !slices.Equal(got, built) {
		t.Fatalf("reopened index has %d entries, appends built %d:\n got %v\nwant %v", len(got), len(built), got, built)
	}

	// Tear the tail inside the frame of the last entry.
	cut := built[len(built)-1].off + 3
	if cut >= size {
		t.Fatalf("last entry at %d of %d bytes", cut-3, size)
	}
	if err := os.Truncate(filepath.Join(dir, seg), cut); err != nil {
		t.Fatal(err)
	}
	if got, want := reopen(), built[:len(built)-1]; !slices.Equal(got, want) {
		t.Fatalf("after a torn tail the index has %d entries, want %d", len(got), len(want))
	}
}
