package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
)

// This file is the replication-facing surface of the log: a bounded
// range reader that a primary uses to stream already-durable records to
// followers, plus retention holds that keep segments on disk until
// every registered follower has acknowledged them.
//
// ReadRange is safe to run concurrently with Append as long as the
// caller never asks for records past the durable watermark: a frame's
// bytes are fully written (single write call under the append mutex)
// before its LSN can be observed via SyncedLSN/LastLSN, and the scan
// stops at `to` — its read-ahead may pull bytes of an in-flight tail
// into the buffer, but nothing past `to` is ever parsed.
//
// What a read costs is what it returns, not what the segment holds:
// Open's scan and append keep a sparse (LSN, byte offset) index of the
// active segment, so streaming the tail seeks to within indexStride
// bytes of the first record asked for. Sealed segments are not indexed
// and are scanned from their header — a lagging follower pays that once
// per segment, then lives in the indexed tail.

// ReapedError reports that a requested LSN has already been reaped: the
// oldest record still on disk is First. Callers recover by bootstrapping
// from a snapshot instead of the log.
type ReapedError struct {
	// Requested is the LSN the caller asked for.
	Requested uint64
	// First is the oldest LSN still readable from the log.
	First uint64
}

func (e *ReapedError) Error() string {
	return fmt.Sprintf("wal: lsn %d already reaped (oldest on disk is %d)", e.Requested, e.First)
}

// errStopScan is the sentinel a range scan returns through scanSegment's
// callback once it has emitted its last requested record.
var errStopScan = errors.New("wal: stop scan")

// FirstLSN returns the first LSN of the oldest segment still on disk —
// the lower bound of what ReadRange can serve. Note an empty active
// segment yields its would-be first LSN (nothing readable yet, but
// nothing missing either).
func (l *Log) FirstLSN() (uint64, error) {
	names, err := listSegments(l.fsys, l.dir)
	if err != nil {
		return 0, fmt.Errorf("wal: listing %s: %w", l.dir, err)
	}
	if len(names) == 0 {
		return 0, fmt.Errorf("wal: no segments in %s", l.dir)
	}
	first, ok := firstLSNFromName(names[0])
	if !ok {
		return 0, fmt.Errorf("wal: unparsable segment name %s", names[0])
	}
	return first, nil
}

// SyncedLSN returns the highest LSN known durable (fsynced, or as
// durable as the policy gets). Replication gates its stream at this
// watermark so a follower never acknowledges a record the primary could
// still lose to a crash.
func (l *Log) SyncedLSN() uint64 {
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.synced
}

// ReadRange invokes fn for every record with from ≤ LSN ≤ to, in LSN
// order, reading the segment files directly. It returns a *ReapedError
// if from predates the oldest segment (the caller must bootstrap from a
// snapshot), fn's error if fn fails, the read's error if a frame cannot
// be read, and an error if the log ends before `to` — callers are
// expected to bound `to` by LastLSN/SyncedLSN. body is only valid during
// fn.
func (l *Log) ReadRange(from, to uint64, fn func(lsn uint64, typ RecordType, body []byte) error) error {
	if from == 0 {
		return fmt.Errorf("wal: read range from lsn 0 (lsns start at 1)")
	}
	last, err := l.readRange(from, to, fn)
	if err == nil && last < to {
		err = fmt.Errorf("wal: read range [%d,%d] ended early at %d", from, to, last)
	}
	return err
}

// readRange hands fn every record on disk with from ≤ LSN ≤ to and
// returns the highest LSN it delivered (from-1 if none). It stops at the
// first frame it cannot read: Open has checked every frame on disk, so
// that is damage since, and the records past it would not follow on.
//
// A range that starts in the active segment — the tail a follower
// streams, or the records a restart replays past its snapshot — is read
// from the nearest indexed frame at or below `from`, without listing the
// directory. Any other range walks the segments from their headers,
// opening none that ends below `from`.
func (l *Log) readRange(from, to uint64, fn func(lsn uint64, typ RecordType, body []byte) error) (last uint64, err error) {
	last = from - 1
	if to < from {
		return last, nil
	}
	// scan walks one segment file from byte offset off (0: from its
	// header), whose first frame there is record lsn, and reports whether
	// it delivered `to`.
	scan := func(name string, off int64, lsn uint64) (done bool, err error) {
		emit := func(typ RecordType, body []byte) error {
			cur := lsn
			lsn++
			if cur < from {
				return nil
			}
			if err := fn(cur, typ, body); err != nil {
				return err
			}
			last = cur
			if cur == to {
				return errStopScan
			}
			return nil
		}
		_, _, _, err = l.scanFile(filepath.Join(l.dir, name), off, emit)
		if err == errStopScan {
			return true, nil
		}
		return false, err
	}

	if segFirst, e, ok := l.indexSeek(from); ok {
		// from ≥ the active segment's first LSN, so the whole range lives
		// in that one file, whatever rotates in the meantime.
		_, err := scan(segmentName(segFirst), e.off, e.lsn)
		return last, err
	}

	names, err := listSegments(l.fsys, l.dir)
	if err != nil {
		return last, fmt.Errorf("wal: listing %s: %w", l.dir, err)
	}
	if len(names) == 0 {
		return last, fmt.Errorf("wal: no segments in %s", l.dir)
	}
	oldest, ok := firstLSNFromName(names[0])
	if !ok {
		return last, fmt.Errorf("wal: unparsable segment name %s", names[0])
	}
	if from < oldest {
		return last, &ReapedError{Requested: from, First: oldest}
	}
	for i, name := range names {
		first, ok := firstLSNFromName(name)
		if !ok {
			return last, fmt.Errorf("wal: unparsable segment name %s", name)
		}
		if first > to {
			break
		}
		// Skip segments that end at or before `from`.
		if i+1 < len(names) {
			if next, ok := firstLSNFromName(names[i+1]); ok && next <= from {
				continue
			}
		}
		if done, err := scan(name, 0, first); err != nil || done {
			return last, err
		}
	}
	return last, nil
}

// indexSeek returns the greatest offset-index entry at or below lsn and
// the first LSN of the active segment it points into; ok is false when
// the index does not reach back to lsn.
func (l *Log) indexSeek(lsn uint64) (segFirst uint64, e indexEntry, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := sort.Search(len(l.index), func(i int) bool { return l.index[i].lsn > lsn })
	if n == 0 {
		return 0, indexEntry{}, false
	}
	return l.segFirst, l.index[n-1], true
}

// SetReapHold registers (or moves) a retention hold: Reap will keep
// every record with LSN > lsn on disk regardless of the snapshot
// coverage it is asked to reap through. Holds are how replication pins
// segments a registered follower has not acknowledged yet, so a slow
// standby catches up from the log instead of a full snapshot.
func (l *Log) SetReapHold(id string, lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.holds == nil {
		l.holds = make(map[string]uint64)
	}
	l.holds[id] = lsn
}

// reapCeiling caps a requested reap-through LSN by the registered holds.
func (l *Log) reapCeiling(throughLSN uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, h := range l.holds {
		if h < throughLSN {
			throughLSN = h
		}
	}
	return throughLSN
}
