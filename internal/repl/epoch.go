package repl

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"hpcpower/internal/vfs"
)

// EpochFile persists the fencing epoch — a monotonically increasing
// counter bumped on every promotion — beside the last epoch this node
// led, as "epoch led\n", versioned by its field count (the older
// one-field form reads as led 0). It is published by
// vfs.WriteFileAtomic, so a crash mid-write leaves the old record or the
// new one, never a torn value. An elected node boots from it: led ==
// epoch says its WAL is that epoch's history, led < epoch that it
// followed the epoch's leader, in whose LSN space its replication cursor
// counts.
type EpochFile struct {
	fsys vfs.FS
	path string

	mu         sync.Mutex
	epoch, led uint64
}

// OpenEpochFile loads (or initializes to 0) the record stored at path.
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
	f := append(strings.Fields(string(data)), "0") // led 0 if absent
	if len(f) > 3 {
		return nil, fmt.Errorf("repl: %s: epoch file version %d, this build reads versions 1 and 2", path, len(f)-1)
	}
	var perr error
	if len(f) >= 2 {
		e.epoch, err = strconv.ParseUint(f[0], 10, 64)
		e.led, perr = strconv.ParseUint(f[1], 10, 64)
	}
	if len(f) < 2 || err != nil || perr != nil || e.led > e.epoch {
		return nil, fmt.Errorf("repl: epoch file %s holds %q, want \"epoch [led]\" with led at most epoch", path, bytes.TrimSpace(data))
	}
	return e, nil
}

// Epoch returns the current epoch.
func (e *EpochFile) Epoch() uint64 { epoch, _ := e.State(); return epoch }

// State returns the current epoch and whether this node led it.
func (e *EpochFile) State() (epoch uint64, led bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch, e.epoch > 0 && e.led == e.epoch
}

// Store adopts epoch as a follower would, keeping the led epoch, if it
// is ahead of the current value; the epoch is forward-only, so a delayed
// write can never un-fence a primary. Epoch() advances only once the
// new value is durable.
func (e *EpochFile) Store(epoch uint64) error { return e.store(epoch, false) }

// Lead is Store for a promotion: this node leads epoch.
func (e *EpochFile) Lead(epoch uint64) error { return e.store(epoch, true) }

func (e *EpochFile) store(epoch uint64, lead bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if epoch <= e.epoch {
		return nil
	}
	led := e.led
	if lead {
		led = epoch
	}
	err := vfs.WriteFileAtomic(e.fsys, e.path, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d %d\n", epoch, led)
		return err
	})
	if err != nil {
		return fmt.Errorf("repl: storing epoch %d: %w", epoch, err)
	}
	e.epoch, e.led = epoch, led
	return nil
}
