package vfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "a.dat")
	f, err := OS.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("ReadAt = %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(OS, name)
	if err != nil || string(b) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := OS.Rename(name, name+".2"); err != nil {
		t.Fatal(err)
	}
	if err := OS.Remove(name + ".2"); err != nil {
		t.Fatal(err)
	}
}

func TestCreateTempUniqueAndCleanable(t *testing.T) {
	dir := t.TempDir()
	f1, err := CreateTemp(OS, dir, "snap-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := CreateTemp(OS, dir, "snap-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if f1.Name() == f2.Name() {
		t.Fatalf("duplicate temp names: %s", f1.Name())
	}
	for _, f := range []File{f1, f2} {
		if !strings.HasPrefix(filepath.Base(f.Name()), "snap-") || !strings.HasSuffix(f.Name(), ".tmp") {
			t.Fatalf("temp name %q does not match pattern", f.Name())
		}
		f.Close()
		if err := OS.Remove(f.Name()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFaultFSZeroConfigPassthrough(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFault(OS, FaultConfig{})
	name := filepath.Join(dir, "p.dat")
	f, err := ffs.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "abc" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	f.Close()
	if s := ffs.Stats(); s != (FaultStats{}) {
		t.Fatalf("zero config injected faults: %+v", s)
	}
}

func TestFaultFSWriteEIODeterministic(t *testing.T) {
	run := func() (errs int) {
		dir := t.TempDir()
		ffs := NewFault(OS, FaultConfig{Seed: 42, WriteErrProb: 0.5})
		f, err := ffs.OpenFile(filepath.Join(dir, "w.dat"), os.O_RDWR|os.O_CREATE, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i := 0; i < 64; i++ {
			if _, err := f.Write([]byte{byte(i)}); err != nil {
				if !errors.Is(err, syscall.EIO) {
					t.Fatalf("want EIO, got %v", err)
				}
				errs++
			}
		}
		return errs
	}
	a, b := run(), run()
	if a == 0 || a != b {
		t.Fatalf("want deterministic nonzero error count, got %d vs %d", a, b)
	}
}

func TestFaultFSENOSPCBudgetAndRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFault(OS, FaultConfig{WriteBudget: 8, ENOSPCFor: 50 * time.Millisecond})
	f, err := ffs.OpenFile(filepath.Join(dir, "b.dat"), os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(make([]byte, 8)); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if _, err := f.Write([]byte{1}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := f.Write(make([]byte, 1024)); err != nil {
		t.Fatalf("after recovery window: %v", err)
	}
	if s := ffs.Stats(); s.ENOSPC == 0 {
		t.Fatalf("ENOSPC not counted: %+v", s)
	}
}

func TestFaultFSTornWriteLandsPrefix(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFault(OS, FaultConfig{Seed: 1, WriteErrProb: 1, TornWrites: true})
	name := filepath.Join(dir, "t.dat")
	f, err := ffs.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = 0xAB
	}
	n, werr := f.Write(payload)
	if werr == nil {
		t.Fatal("want injected write error")
	}
	f.Close()
	st, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != st.Size() || st.Size() >= int64(len(payload)) {
		t.Fatalf("torn write: reported n=%d, on disk %d, payload %d", n, st.Size(), len(payload))
	}
}

func TestFaultFSBitFlipDoesNotTouchDisk(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "r.dat")
	if err := os.WriteFile(name, make([]byte, 64), 0o600); err != nil {
		t.Fatal(err)
	}
	ffs := NewFault(OS, FaultConfig{Seed: 3, BitFlipProb: 1})
	f, err := ffs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	flipped := 0
	for _, b := range buf {
		if b != 0 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("want exactly one flipped byte in returned buffer, got %d", flipped)
	}
	onDisk, _ := os.ReadFile(name)
	for _, b := range onDisk {
		if b != 0 {
			t.Fatal("bit flip leaked to disk")
		}
	}
}

func TestFaultFSPathFilter(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFault(OS, FaultConfig{WriteErrProb: 1, PathSubstring: "wal-"})
	free, err := ffs.OpenFile(filepath.Join(dir, "other.dat"), os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := free.Write([]byte("x")); err != nil {
		t.Fatalf("non-matching path faulted: %v", err)
	}
	free.Close()
	hit, err := ffs.OpenFile(filepath.Join(dir, "wal-0001.seg"), os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hit.Write([]byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("matching path not faulted: %v", err)
	}
	hit.Close()
}

// publishFS is a FaultFS whose directory fsyncs answer to a FaultFS of
// their own, so a case can fail the directory and nothing else.
type publishFS struct {
	*FaultFS
	dirs *FaultFS
}

func (p publishFS) SyncDir(dir string) error { return p.dirs.SyncDir(dir) }

// TestWriteFileAtomic drives the publish protocol through every step
// that can fail. Whatever happens, the target holds its old bytes or the
// new ones, never a mix, and no temp file remains.
func TestWriteFileAtomic(t *testing.T) {
	oldBytes, newBytes := []byte("old contents\n"), []byte("the new, longer contents\n")
	cases := []struct {
		name    string
		fresh   bool // no file at the target beforehand
		file    FaultConfig
		dir     FaultConfig
		wantErr error  // nil: the publish succeeds
		want    []byte // what the target holds afterwards; nil: absent
	}{
		{name: "first publish", fresh: true, want: newBytes},
		{name: "rename onto an existing file", want: newBytes},
		{name: "write EIO", file: FaultConfig{WriteErrProb: 1}, wantErr: syscall.EIO, want: oldBytes},
		{name: "write EIO, nothing to keep", fresh: true, file: FaultConfig{WriteErrProb: 1}, wantErr: syscall.EIO},
		{name: "torn write", file: FaultConfig{Seed: 3, WriteErrProb: 1, TornWrites: true}, wantErr: syscall.EIO, want: oldBytes},
		{name: "sync EIO", file: FaultConfig{SyncErrProb: 1}, wantErr: syscall.EIO, want: oldBytes},
		{name: "ENOSPC", file: FaultConfig{WriteBudget: 1}, wantErr: syscall.ENOSPC, want: oldBytes},
		// The rename has happened: the new bytes are visible, the error
		// says they are not durable.
		{name: "dir sync EIO", dir: FaultConfig{SyncErrProb: 1}, wantErr: syscall.EIO, want: newBytes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "STATE")
			fsys := publishFS{NewFault(OS, FaultConfig{}), NewFault(OS, FaultConfig{})}
			publish := func(b []byte) error {
				return WriteFileAtomic(fsys, path, func(w io.Writer) error {
					// Two writes, as a header and a payload are.
					if _, err := w.Write(b[:4]); err != nil {
						return err
					}
					_, err := w.Write(b[4:])
					return err
				})
			}
			if !tc.fresh {
				if err := publish(oldBytes); err != nil {
					t.Fatal(err)
				}
			}
			fsys.Configure(func(c *FaultConfig) { *c = tc.file })
			fsys.dirs.Configure(func(c *FaultConfig) { *c = tc.dir })
			err := publish(newBytes)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("publish error = %v, want %v", err, tc.wantErr)
			}
			got, err := os.ReadFile(path)
			if tc.want == nil && !os.IsNotExist(err) {
				t.Fatalf("target exists after a failed first publish: %q, %v", got, err)
			}
			if tc.want != nil && (err != nil || !bytes.Equal(got, tc.want)) {
				t.Fatalf("target holds %q (%v), want %q", got, err, tc.want)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if e.Name() != "STATE" {
					t.Fatalf("publish left %s behind", e.Name())
				}
			}
		})
	}
}

func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap-1.snap.77-1.tmp", "EPOCH.77-2.tmp", "EPOCH", "wal-1.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "blocks.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	RemoveTemps(OS, dir)
	RemoveTemps(OS, filepath.Join(dir, "no such dir")) // nothing to sweep, nothing to report
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range ents {
		left = append(left, e.Name())
	}
	if got := strings.Join(left, " "); got != "EPOCH blocks.tmp wal-1.log" {
		t.Fatalf("after the sweep the dir holds %q, want the published files and the directory", got)
	}
}
