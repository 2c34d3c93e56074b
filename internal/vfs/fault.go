package vfs

import (
	"io/fs"
	"math/rand"
	"strings"
	"sync"
	"syscall"
	"time"
)

// FaultConfig describes the faults a FaultFS injects. The zero value
// injects nothing — a FaultFS with a zero config is a passthrough.
type FaultConfig struct {
	// Seed makes the injected fault sequence reproducible for a given
	// operation order.
	Seed int64
	// ReadErrProb / WriteErrProb / SyncErrProb are per-operation EIO
	// probabilities in [0,1].
	ReadErrProb  float64
	WriteErrProb float64
	SyncErrProb  float64
	// BitFlipProb is the per-read probability that one bit of the
	// returned data is flipped (the file on disk is untouched).
	BitFlipProb float64
	// TornWrites makes injected write errors land a partial prefix of
	// the buffer first, modeling a write torn by power loss.
	TornWrites bool
	// WriteBudget, when > 0, is the number of bytes that may be written
	// before writes start failing with ENOSPC.
	WriteBudget int64
	// ENOSPCFor, when > 0 together with WriteBudget, bounds the outage:
	// after the budget is exhausted writes fail with ENOSPC for this
	// duration, then space "frees" and the budget becomes unlimited.
	ENOSPCFor time.Duration
	// PathSubstring, when non-empty, restricts fault injection to files
	// whose path contains it. Non-matching files pass through.
	PathSubstring string
}

// FaultStats counts injected faults.
type FaultStats struct {
	ReadErrors  int64
	WriteErrors int64
	SyncErrors  int64
	BitFlips    int64
	ENOSPC      int64
	TornWrites  int64
}

// FaultFS wraps an FS and injects deterministic, seedable disk faults.
// It is safe for concurrent use; determinism holds for a fixed
// operation order.
type FaultFS struct {
	inner FS

	mu        sync.Mutex
	cfg       FaultConfig
	rng       *rand.Rand
	written   int64
	exhausted time.Time // when the write budget ran out; zero = not yet
	stats     FaultStats
}

// NewFault wraps inner with fault injection per cfg.
func NewFault(inner FS, cfg FaultConfig) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Configure atomically adjusts the fault configuration at runtime.
func (f *FaultFS) Configure(fn func(*FaultConfig)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(&f.cfg)
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultFS) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// faulted reports whether the path is subject to injection.
func (f *FaultFS) faulted(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg.PathSubstring == "" || strings.Contains(name, f.cfg.PathSubstring)
}

// roll draws against prob under the lock.
func (f *FaultFS) roll(prob float64) bool {
	if prob <= 0 {
		return false
	}
	return f.rng.Float64() < prob
}

// admitWrite charges n bytes against the budget. It returns the number
// of bytes allowed (possibly torn short) and whether an error should be
// injected, already counted in stats.
func (f *FaultFS) admitWrite(n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.WriteBudget > 0 {
		if f.written >= f.cfg.WriteBudget {
			if f.exhausted.IsZero() {
				f.exhausted = time.Now()
			}
			if f.cfg.ENOSPCFor > 0 && time.Since(f.exhausted) >= f.cfg.ENOSPCFor {
				// Space freed: lift the budget for the rest of the run.
				f.cfg.WriteBudget = 0
				f.written = 0
			} else {
				f.stats.ENOSPC++
				return 0, syscall.ENOSPC
			}
		}
	}
	if f.roll(f.cfg.WriteErrProb) {
		f.stats.WriteErrors++
		torn := 0
		if f.cfg.TornWrites && n > 1 {
			torn = f.rng.Intn(n)
			f.stats.TornWrites++
		}
		f.written += int64(torn)
		return torn, syscall.EIO
	}
	f.written += int64(n)
	return n, nil
}

// admitRead decides read faults: an injected EIO, or the index of a bit
// to flip in an n-byte read (-1 = none).
func (f *FaultFS) admitRead(n int) (flipBit int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.roll(f.cfg.ReadErrProb) {
		f.stats.ReadErrors++
		return -1, syscall.EIO
	}
	if n > 0 && f.roll(f.cfg.BitFlipProb) {
		f.stats.BitFlips++
		return f.rng.Int63n(int64(n) * 8), nil
	}
	return -1, nil
}

func (f *FaultFS) admitSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.roll(f.cfg.SyncErrProb) {
		f.stats.SyncErrors++
		return syscall.EIO
	}
	return nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if !f.faulted(name) {
		return inner, nil
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	if !f.faulted(name) {
		return inner, nil
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error)      { return f.inner.Stat(name) }
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }
func (f *FaultFS) Rename(oldpath, newpath string) error       { return f.inner.Rename(oldpath, newpath) }
func (f *FaultFS) Remove(name string) error                   { return f.inner.Remove(name) }
func (f *FaultFS) Truncate(name string, size int64) error     { return f.inner.Truncate(name, size) }

func (f *FaultFS) SyncDir(dir string) error {
	if f.faulted(dir) {
		if err := f.admitSync(); err != nil {
			return &fs.PathError{Op: "syncdir", Path: dir, Err: err}
		}
	}
	return f.inner.SyncDir(dir)
}

// faultFile applies the parent FaultFS policy to one open file.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Name() string { return ff.inner.Name() }
func (ff *faultFile) Close() error { return ff.inner.Close() }

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.inner.Seek(offset, whence)
}

func (ff *faultFile) Truncate(size int64) error { return ff.inner.Truncate(size) }

func (ff *faultFile) Write(p []byte) (int, error) {
	allow, ferr := ff.fs.admitWrite(len(p))
	if ferr != nil {
		n := 0
		if allow > 0 {
			// Torn write: a prefix lands before the failure.
			n, _ = ff.inner.Write(p[:allow])
		}
		return n, &fs.PathError{Op: "write", Path: ff.inner.Name(), Err: ferr}
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	allow, ferr := ff.fs.admitWrite(len(p))
	if ferr != nil {
		n := 0
		if allow > 0 {
			n, _ = ff.inner.WriteAt(p[:allow], off)
		}
		return n, &fs.PathError{Op: "write", Path: ff.inner.Name(), Err: ferr}
	}
	return ff.inner.WriteAt(p, off)
}

func (ff *faultFile) Read(p []byte) (int, error) {
	bit, ferr := ff.fs.admitRead(len(p))
	if ferr != nil {
		return 0, &fs.PathError{Op: "read", Path: ff.inner.Name(), Err: ferr}
	}
	n, err := ff.inner.Read(p)
	flipBit(p, n, bit)
	return n, err
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	bit, ferr := ff.fs.admitRead(len(p))
	if ferr != nil {
		return 0, &fs.PathError{Op: "read", Path: ff.inner.Name(), Err: ferr}
	}
	n, err := ff.inner.ReadAt(p, off)
	flipBit(p, n, bit)
	return n, err
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.admitSync(); err != nil {
		return &fs.PathError{Op: "sync", Path: ff.inner.Name(), Err: err}
	}
	return ff.inner.Sync()
}

// Fd forwards the descriptor when the inner file has one (flock).
func (ff *faultFile) Fd() uintptr {
	if fd, ok := ff.inner.(Fder); ok {
		return fd.Fd()
	}
	return ^uintptr(0)
}

// flipBit flips the given bit (drawn over the request size) if it falls
// inside the n bytes actually read.
func flipBit(p []byte, n int, bit int64) {
	if bit < 0 || int(bit/8) >= n {
		return
	}
	p[bit/8] ^= 1 << uint(bit%8)
}
