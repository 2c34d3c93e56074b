package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// TruncateTo discards every record with LSN > lsn: whole segments above
// the boundary are removed and the boundary segment is byte-truncated
// at the end of lsn's frame. It returns the number of *data* records
// dropped (tombstones are bookkeeping, not payload) — the divergence a
// deposed primary rolls back before re-syncing from the new one.
//
// The caller must quiesce the log first: no Append, Sync, or
// WaitDurable above lsn may be in flight (the serving layer holds its
// apply lock across the call). Records at or below lsn are untouched,
// and the next append is assigned lsn+1.
func (l *Log) TruncateTo(lsn uint64) (droppedData int, err error) {
	// Own the group-commit slot so no fsync holds the active file
	// handle while we replace it (lock order forbids waiting on smu
	// with mu held).
	l.smu.Lock()
	for l.syncing {
		l.scond.Wait()
	}
	l.syncing = true
	l.smu.Unlock()
	defer func() {
		l.smu.Lock()
		l.syncing = false
		if l.synced > lsn {
			// The dropped suffix can no longer be durable; clamp the
			// watermark so Stats never reports LSNs that do not exist.
			l.synced = lsn
		}
		l.scond.Broadcast()
		l.smu.Unlock()
	}()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if l.nextLSN <= lsn+1 {
		return 0, nil // nothing above lsn
	}
	// Forget the indexed frames about to go. What is left still describes
	// the active segment if it survives as the boundary; if a sealed
	// segment becomes active instead, every entry was above lsn and the
	// index is empty, as for any segment this process did not write.
	l.index = l.index[:l.indexedThrough(lsn)]
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return 0, fmt.Errorf("wal: closing active segment: %w", err)
		}
		l.f = nil
	}
	names, err := listSegments(l.fsys, l.dir)
	if err != nil {
		return 0, fmt.Errorf("wal: listing %s: %w", l.dir, err)
	}
	// The boundary is the last segment starting at or below lsn; every
	// earlier segment ends before it and is untouched.
	boundary := -1
	for i, name := range names {
		first, ok := firstLSNFromName(name)
		if !ok {
			continue
		}
		if first <= lsn {
			boundary = i
			continue
		}
		// Whole segment above the boundary: count its data records and
		// remove it.
		path := filepath.Join(l.dir, name)
		_, _, _, scanErr := l.scanFile(path, func(typ RecordType, body []byte) error {
			if typ == RecordData {
				droppedData++
			}
			return nil
		})
		if scanErr != nil && !truncatable(scanErr) {
			return droppedData, fmt.Errorf("wal: scanning %s: %w", name, scanErr)
		}
		if st, statErr := l.fsys.Stat(path); statErr == nil {
			l.truncatedBytes += st.Size()
		}
		if err := l.fsys.Remove(path); err != nil {
			return droppedData, fmt.Errorf("wal: removing %s: %w", name, err)
		}
		l.droppedSegments++
	}

	if boundary >= 0 {
		// Byte-truncate the boundary segment at the end of lsn's frame.
		name := names[boundary]
		first, _ := firstLSNFromName(name)
		path := filepath.Join(l.dir, name)
		valid := int64(segHeaderSize)
		cur := first
		_, _, _, scanErr := l.scanFile(path, func(typ RecordType, body []byte) error {
			if cur <= lsn {
				valid += int64(frameHeaderSize + len(body))
			} else if typ == RecordData {
				droppedData++
			}
			cur++
			return nil
		})
		if scanErr != nil && !truncatable(scanErr) {
			return droppedData, fmt.Errorf("wal: scanning %s: %w", name, scanErr)
		}
		if st, statErr := l.fsys.Stat(path); statErr == nil && st.Size() > valid {
			if err := l.fsys.Truncate(path, valid); err != nil {
				return droppedData, fmt.Errorf("wal: truncating %s: %w", name, err)
			}
			l.truncatedBytes += st.Size() - valid
		}
		f, err := l.fsys.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return droppedData, fmt.Errorf("wal: reopening %s: %w", name, err)
		}
		size, err := f.Seek(0, 2)
		if err != nil {
			f.Close()
			return droppedData, fmt.Errorf("wal: seeking %s: %w", name, err)
		}
		// Make the surviving prefix durable before anyone builds on it.
		if err := f.Sync(); err != nil {
			f.Close()
			return droppedData, fmt.Errorf("wal: syncing %s: %w", name, err)
		}
		l.f, l.fSize, l.segFirst = f, size, first
		l.nextLSN = lsn + 1
	} else {
		// Everything lived above lsn: start a fresh segment at lsn+1.
		l.nextLSN = lsn + 1
		if err := l.newSegment(l.nextLSN); err != nil {
			return droppedData, err
		}
	}
	if err := syncDir(l.fsys, l.dir); err != nil {
		return droppedData, err
	}
	return droppedData, nil
}
