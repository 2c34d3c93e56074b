package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"hpcpower/internal/vfs"
)

// FileLock is an exclusive advisory lock on a data directory, held via
// flock(2) on <dir>/LOCK. The kernel releases flock locks when the
// holding process dies, so a LOCK file left behind by a crashed daemon
// is stale by construction: a new instance acquires the lock over it
// and only a *live* holder is refused.
type FileLock struct {
	f     vfs.File
	fsys  vfs.FS
	path  string
	stale bool
}

// ErrLocked wraps the refusal when another live process holds the lock.
var ErrLocked = fmt.Errorf("wal: data dir is locked by another running instance")

// LockDirFS validates dir (it must exist, be a directory, and be
// writable) and takes its exclusive lock, failing fast with a clear
// error otherwise — the powserved startup contract. When the FS
// cannot expose a real file descriptor (vfs.Fder), the flock step is
// skipped — single-process tests with synthetic filesystems keep the
// create/validate semantics without kernel locking.
func LockDirFS(fsys vfs.FS, dir string) (*FileLock, error) {
	st, err := fsys.Stat(dir)
	switch {
	case os.IsNotExist(err):
		return nil, fmt.Errorf("wal: data dir %s does not exist (create it first)", dir)
	case err != nil:
		return nil, fmt.Errorf("wal: data dir %s: %w", dir, err)
	case !st.IsDir():
		return nil, fmt.Errorf("wal: data dir %s is not a directory", dir)
	}
	path := filepath.Join(dir, "LOCK")
	existed := false
	if _, err := fsys.Stat(path); err == nil {
		existed = true
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: data dir %s is not writable: %w", dir, err)
	}
	if err := flockFile(f); err != nil {
		holder := "unknown pid"
		if b, rerr := vfs.ReadFile(fsys, path); rerr == nil && len(b) > 0 {
			holder = "pid " + strings.TrimSpace(string(b))
		}
		f.Close()
		return nil, fmt.Errorf("%w: %s holds %s", ErrLocked, holder, path)
	}
	// Lock acquired: any pre-existing LOCK file was left by a dead
	// process. Record our pid for the next contender's error message.
	if err := f.Truncate(0); err == nil {
		_, _ = f.WriteAt([]byte(fmt.Sprintf("%d\n", os.Getpid())), 0)
	}
	return &FileLock{f: f, fsys: fsys, path: path, stale: existed}, nil
}

// flockFile takes the exclusive non-blocking flock when the file exposes
// a descriptor; files without one (synthetic filesystems) pass.
func flockFile(f vfs.File) error {
	fd, ok := f.(vfs.Fder)
	if !ok || fd.Fd() == ^uintptr(0) {
		return nil
	}
	return syscall.Flock(int(fd.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}

// Stale reports whether a leftover LOCK file from a dead process was
// detected (and taken over) at acquisition.
func (l *FileLock) Stale() bool { return l.stale }

// Abandon releases the lock but leaves the LOCK file behind — exactly
// the state a SIGKILLed holder leaves on disk (the kernel drops the
// flock with the process; the file stays). Crash harnesses use it to
// simulate death in-process; real shutdown paths use Unlock.
func (l *FileLock) Abandon() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Unlock releases the lock and removes the LOCK file.
func (l *FileLock) Unlock() error {
	if l.f == nil {
		return nil
	}
	_ = l.fsys.Remove(l.path)
	var err error
	if fd, ok := l.f.(vfs.Fder); ok && fd.Fd() != ^uintptr(0) {
		err = syscall.Flock(int(fd.Fd()), syscall.LOCK_UN)
	}
	cerr := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: unlock: %w", err)
	}
	return cerr
}
