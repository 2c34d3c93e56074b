// Package vfs is the filesystem seam under every durable byte powserved
// writes: a minimal FS/File interface with a passthrough OS
// implementation and a deterministic fault injector (FaultFS), so the
// WAL, snapshot, block-store, fencing-epoch and election-state code
// paths can be driven through EIO, ENOSPC, torn writes, and bit rot in
// tests without touching a real failing disk. Files
// that are replaced whole are published by WriteFileAtomic.
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
	"path/filepath"
	"strings"
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

// ReadFile reads the whole named file through fsys. Reads that end before
// the file does are an error, not a shorter file.
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
	size := int64(-1)
	if fi, err := fsys.Stat(name); err == nil && fi.Size() < math.MaxInt32 {
		size = fi.Size()
		buf.Grow(int(size) + bytes.MinRead)
	}
	if _, err = buf.ReadFrom(f); err == nil && int64(buf.Len()) < size {
		err = fmt.Errorf("vfs: reading %s: reads ended at byte %d of %d: %w", name, buf.Len(), size, io.ErrUnexpectedEOF)
	}
	return buf.Bytes(), err
}

// tempSeq makes CreateTemp names unique within a process.
var tempSeq atomic.Uint64

// CreateTemp creates a new file in dir with a name built from pattern
// (the first "*" is replaced; no "*" appends the suffix), as
// os.CreateTemp does, but through fsys and with the mode of the WAL's
// segments (0644 before umask): WriteFileAtomic renames the file to
// where it is meant to be read, a released dataset by other users.
// Names are unique per process (pid + counter); stray temp files from a
// dead process are swept by RemoveTemps.
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
		f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		return f, err
	}
	return nil, fmt.Errorf("vfs: could not create temp file in %s", dir)
}

// tempSuffix ends the name of every file WriteFileAtomic has not yet
// published; no reader of a durable file matches it.
const tempSuffix = ".tmp"

// WriteFileAtomic is the one way a durable file is published: write
// streams the contents into a unique temp file beside path, which is
// fsynced, closed, renamed over path, and made durable by an fsync of
// the directory. A crash or a failure at any step leaves path holding
// its previous bytes or the new ones, never a mix, and no failure
// leaves the temp file behind. A failed directory fsync is returned
// although the rename has happened: path reads as the new bytes, but
// they are not durable yet, so the caller must not report them stored.
//
// Errors come back as the filesystem gave them (a *fs.PathError naming
// the operation and the file); callers add what was being published.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := CreateTemp(fsys, dir, filepath.Base(path)+".*"+tempSuffix)
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		// Best effort: if this fails too, RemoveTemps sweeps what is left.
		_ = fsys.Remove(tmp.Name())
		return err
	}
	return fsys.SyncDir(dir)
}

// RemoveTemps deletes the temp files a process that died inside
// WriteFileAtomic left in dir. The caller must own dir (hold its lock):
// a live writer's temp file looks the same. Best effort, hence no error:
// a temp file that will not go costs space, not correctness, and a dir
// that cannot be listed fails whatever the caller opens in it next.
func RemoveTemps(fsys FS, dir string) {
	entries, _ := fsys.ReadDir(dir)
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), tempSuffix) {
			_ = fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
