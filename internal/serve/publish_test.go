package serve

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/elect"
	"hpcpower/internal/repl"
	"hpcpower/internal/vfs"
	"hpcpower/internal/wal"
)

// publishFS is a FaultFS whose directory fsyncs answer to a FaultFS of
// their own, so a case can fail the directory and nothing else.
type publishFS struct {
	*vfs.FaultFS
	dirs *vfs.FaultFS
}

func (p publishFS) SyncDir(dir string) error { return p.dirs.SyncDir(dir) }

// publisher is one of the four files of a node that are replaced whole.
// open returns publish, which stores version v, and inMemory, the version
// the open handle reports (nil: it keeps none); onDisk is the version a
// restart would find.
type publisher struct {
	name   string
	prefix string // the package's error prefix
	open   func(t *testing.T, fsys vfs.FS, dir string) (publish func(v uint64) error, inMemory func() uint64)
	onDisk func(t *testing.T, dir string) uint64
}

const publishWindow = 7200

var publishers = []publisher{
	{
		name: "snapshot", prefix: "wal: ",
		open: func(t *testing.T, fsys vfs.FS, dir string) (func(uint64) error, func() uint64) {
			return func(v uint64) error { return wal.WriteSnapshotFS(fsys, dir, v, []byte("state of the store")) }, nil
		},
		onDisk: func(t *testing.T, dir string) uint64 {
			lsn, _, _, skipped, err := wal.LatestSnapshotFS(vfs.OS, dir)
			if err != nil || len(skipped) != 0 {
				t.Fatalf("LatestSnapshot: skipped %v, %v", skipped, err)
			}
			return lsn
		},
	},
	{
		name: "block", prefix: "block: ",
		open: func(t *testing.T, fsys vfs.FS, dir string) (func(uint64) error, func() uint64) {
			bs, err := block.Open(block.Config{Dir: dir, WindowSeconds: publishWindow, FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			publish := func(v uint64) error {
				ws := int64(v-1) * publishWindow
				_, err := bs.WriteRaw(ws, map[int][]block.Point{3: {{T: ws, V: 101.5}, {T: ws + 60, V: 99}}})
				return err
			}
			return publish, func() uint64 { return uint64(bs.Frontier() / publishWindow) }
		},
		onDisk: func(t *testing.T, dir string) uint64 {
			bs, err := block.Open(block.Config{Dir: dir, WindowSeconds: publishWindow})
			if err != nil {
				t.Fatal(err)
			}
			if st := bs.Stats(); st.Quarantined != 0 {
				t.Fatalf("a failed publish left a corrupt block: %+v", st)
			}
			return uint64(bs.Frontier() / publishWindow)
		},
	},
	{
		name: "epoch", prefix: "repl: ",
		open: func(t *testing.T, fsys vfs.FS, dir string) (func(uint64) error, func() uint64) {
			ef, err := repl.OpenEpochFile(fsys, filepath.Join(dir, "EPOCH"))
			if err != nil {
				t.Fatal(err)
			}
			return ef.Store, ef.Epoch
		},
		onDisk: func(t *testing.T, dir string) uint64 {
			ef, err := repl.OpenEpochFile(vfs.OS, filepath.Join(dir, "EPOCH"))
			if err != nil {
				t.Fatal(err)
			}
			return ef.Epoch()
		},
	},
	{
		name: "election state", prefix: "elect: ",
		open: func(t *testing.T, fsys vfs.FS, dir string) (func(uint64) error, func() uint64) {
			sf, err := elect.OpenStateFile(fsys, filepath.Join(dir, "ELECT"))
			if err != nil {
				t.Fatal(err)
			}
			return sf.Store, sf.Promised
		},
		onDisk: func(t *testing.T, dir string) uint64 {
			sf, err := elect.OpenStateFile(vfs.OS, filepath.Join(dir, "ELECT"))
			if err != nil {
				t.Fatal(err)
			}
			return sf.Promised()
		},
	},
}

// TestPublishersUnderFaults runs vfs's TestWriteFileAtomic cases through
// each caller of the helper: version 1 is published cleanly, version 2
// under the fault. The caller must name itself in the error and keep the
// cause, its in-memory state must not advance past what it was told is
// durable, a restart must find version 1 or version 2 whole, no temp file
// may remain, and a retry once the fault has cleared must go through.
func TestPublishersUnderFaults(t *testing.T) {
	cases := []struct {
		name     string
		file     vfs.FaultConfig
		dir      vfs.FaultConfig
		wantErr  error
		wantDisk uint64
	}{
		{name: "no fault", wantDisk: 2},
		{name: "write EIO", file: vfs.FaultConfig{WriteErrProb: 1}, wantErr: syscall.EIO, wantDisk: 1},
		{name: "torn write", file: vfs.FaultConfig{Seed: 3, WriteErrProb: 1, TornWrites: true}, wantErr: syscall.EIO, wantDisk: 1},
		{name: "sync EIO", file: vfs.FaultConfig{SyncErrProb: 1}, wantErr: syscall.EIO, wantDisk: 1},
		{name: "ENOSPC", file: vfs.FaultConfig{WriteBudget: 1}, wantErr: syscall.ENOSPC, wantDisk: 1},
		// Renamed but not durable: a restart may find either version; on
		// this filesystem it finds the new one.
		{name: "dir sync EIO", dir: vfs.FaultConfig{SyncErrProb: 1}, wantErr: syscall.EIO, wantDisk: 2},
	}
	for _, p := range publishers {
		for _, tc := range cases {
			t.Run(p.name+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				fsys := publishFS{vfs.NewFault(vfs.OS, vfs.FaultConfig{}), vfs.NewFault(vfs.OS, vfs.FaultConfig{})}
				publish, inMemory := p.open(t, fsys, dir)
				if err := publish(1); err != nil {
					t.Fatal(err)
				}
				fsys.Configure(func(c *vfs.FaultConfig) { *c = tc.file })
				fsys.dirs.Configure(func(c *vfs.FaultConfig) { *c = tc.dir })
				err := publish(2)
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("publish error = %v, want %v", err, tc.wantErr)
				}
				want := uint64(2)
				if err != nil {
					want = 1
					if !strings.HasPrefix(err.Error(), p.prefix) {
						t.Errorf("error %q does not start with %q", err, p.prefix)
					}
				}
				check := func(wantDisk uint64) {
					t.Helper()
					if inMemory != nil && inMemory() != want {
						t.Errorf("in memory: version %d, want %d", inMemory(), want)
					}
					if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
						t.Errorf("temp files left behind: %v", tmps)
					}
					if got := p.onDisk(t, dir); got != wantDisk {
						t.Errorf("on disk: version %d, want %d", got, wantDisk)
					}
				}
				check(tc.wantDisk)

				fsys.Configure(func(c *vfs.FaultConfig) { *c = vfs.FaultConfig{} })
				fsys.dirs.Configure(func(c *vfs.FaultConfig) { *c = vfs.FaultConfig{} })
				if err := publish(2); err != nil && !errors.Is(err, block.ErrExists) {
					t.Fatalf("retry after the fault cleared: %v", err)
				}
				want = 2
				check(2)
			})
		}
	}
}

// TestUnreadableFencingFileRefusesStart: an EPOCH or election-state file
// that exists but cannot be read must fail the open. Starting at epoch 0
// instead would un-fence a deposed primary, or let a voter grant an
// epoch twice.
func TestUnreadableFencingFileRefusesStart(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"EPOCH", "ELECT"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("7\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unreadable := func(name string) vfs.FS {
		return vfs.NewFault(vfs.OS, vfs.FaultConfig{ReadErrProb: 1, PathSubstring: name})
	}
	if ef, err := repl.OpenEpochFile(unreadable("EPOCH"), filepath.Join(dir, "EPOCH")); !errors.Is(err, syscall.EIO) {
		t.Errorf("OpenEpochFile on an unreadable file = %v, %v; want EIO", ef, err)
	}
	if sf, err := elect.OpenStateFile(unreadable("ELECT"), filepath.Join(dir, "ELECT")); !errors.Is(err, syscall.EIO) {
		t.Errorf("OpenStateFile on an unreadable file = %v, %v; want EIO", sf, err)
	}
	s, err := NewDurable(durableStore(), nil, DefaultConfig(), DurabilityConfig{Dir: dir, FS: unreadable("EPOCH")})
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("NewDurable with an unreadable EPOCH = %v, %v; want EIO", s, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "LOCK")); !os.IsNotExist(err) {
		t.Errorf("the refused start left the data dir locked: %v", err)
	}
}
