// Package vfs is the filesystem seam under every durable byte powserved
// writes: a minimal FS/File interface with a passthrough OS
// implementation and a deterministic fault injector (FaultFS), so the
// WAL, snapshot, and block-store code paths can be driven through EIO,
// ENOSPC, torn writes, and bit rot in tests and smoke drills without
// touching a real failing disk.
//
// The interface is deliberately small — exactly the operations the
// durability layer performs (open/create, write, positional read, sync,
// rename, remove, truncate, directory listing and sync) — and carries no
// dependencies, so threading it through a package costs one Options
// field defaulting to OS.
package vfs

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sync/atomic"
)

// File is one open file. The durability layer only ever needs
// sequential writes, positional reads, fsync, and truncation.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate changes the file's size without moving the offset.
	Truncate(size int64) error
}

// Fder is optionally implemented by files backed by a real descriptor;
// callers that need one (flock) type-assert and degrade gracefully
// when the FS cannot provide it.
type Fder interface {
	Fd() uintptr
}

// FS is a filesystem. All paths are interpreted as by package os.
type FS interface {
	// OpenFile is the generalized open call (os.OpenFile semantics).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Open opens a file read-only.
	Open(name string) (File, error)
	// Stat returns file metadata.
	Stat(name string) (fs.FileInfo, error)
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate resizes the named file.
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames and creates in it
	// durable.
	SyncDir(dir string) error
}

// OS is the passthrough filesystem every production path uses.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Open(name string) (File, error)             { return os.Open(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadFile reads the whole named file through fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Sized from Stat, so a snapshot is one allocation and one read
	// instead of io.ReadAll's regrowth copies; the spare MinRead bytes
	// let the read that finds EOF fit without growing.
	var buf bytes.Buffer
	if fi, err := fsys.Stat(name); err == nil && fi.Size() < math.MaxInt32 {
		buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(f)
	return buf.Bytes(), err
}

// tempSeq makes CreateTemp names unique within a process.
var tempSeq atomic.Uint64

// CreateTemp creates a new file in dir with a name built from pattern
// (the first "*" is replaced; no "*" appends the suffix), mirroring
// os.CreateTemp but routed through fsys. Names are unique per process
// (pid + counter), which is all the durability layer needs — stray
// temp files from a dead process are swept or ignored by recovery.
func CreateTemp(fsys FS, dir, pattern string) (File, error) {
	prefix, suffix := pattern, ""
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '*' {
			prefix, suffix = pattern[:i], pattern[i+1:]
			break
		}
	}
	for attempt := 0; attempt < 1000; attempt++ {
		name := fmt.Sprintf("%s%s%d-%d%s", dir+string(os.PathSeparator), prefix,
			os.Getpid(), tempSeq.Add(1), suffix)
		f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if os.IsExist(err) {
			continue
		}
		return f, err
	}
	return nil, fmt.Errorf("vfs: could not create temp file in %s", dir)
}
