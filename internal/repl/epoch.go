package repl

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"hpcpower/internal/vfs"
)

// EpochFile persists the fencing epoch: a monotonically increasing
// counter bumped on every promotion. It is published by
// vfs.WriteFileAtomic, as snapshots are, so a crash mid-bump leaves
// either the old epoch or the new one — never a torn value — and a
// restarted stale primary still knows it was fenced.
type EpochFile struct {
	fsys vfs.FS
	path string

	mu    sync.Mutex
	epoch uint64
}

// OpenEpochFile loads (or initializes to 0) the epoch stored at path.
// Only a missing file means epoch 0: a file that cannot be read fails
// the open, or an I/O error would un-fence a deposed primary.
func OpenEpochFile(fsys vfs.FS, path string) (*EpochFile, error) {
	e := &EpochFile{fsys: fsys, path: path}
	data, err := vfs.ReadFile(fsys, path)
	switch {
	case os.IsNotExist(err):
		return e, nil
	case err != nil:
		return nil, fmt.Errorf("repl: reading epoch file %s: %w", path, err)
	}
	v, perr := strconv.ParseUint(string(bytes.TrimSpace(data)), 10, 64)
	if perr != nil {
		return nil, fmt.Errorf("repl: epoch file %s holds %q, want a decimal epoch", path, bytes.TrimSpace(data))
	}
	e.epoch = v
	return e, nil
}

// Epoch returns the current epoch.
func (e *EpochFile) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// Store persists epoch if it is ahead of the current value; the epoch
// is forward-only, so a delayed write can never un-fence a primary.
// Epoch() advances only once the new value is durable.
func (e *EpochFile) Store(epoch uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if epoch <= e.epoch {
		return nil
	}
	err := vfs.WriteFileAtomic(e.fsys, e.path, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", epoch)
		return err
	})
	if err != nil {
		return fmt.Errorf("repl: storing epoch %d: %w", epoch, err)
	}
	e.epoch = epoch
	return nil
}
