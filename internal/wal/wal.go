// Package wal is the durability layer behind powserved: a segmented,
// CRC32C-framed write-ahead log with group-commit batching, plus atomic
// point-in-time snapshots, so a crash loses nothing that was
// acknowledged and recovery is snapshot + bounded replay.
//
// Guarantees and mechanics:
//
//   - every record is framed with a CRC32-C over its type and body; a
//     record's LSN is its position in the log (segment first-LSN +
//     index), assigned at append time;
//   - Append writes under one mutex; durability waits are separate:
//     with SyncBatch, concurrent appenders share fsyncs via a
//     leader/follower group commit — one fsync acknowledges every
//     record written before it;
//   - segments rotate at a size threshold; rotation fsyncs and closes
//     the old segment, so only the active segment ever has a volatile
//     tail;
//   - Open scans the log and *truncates* at the first torn or corrupt
//     frame (dropping any later segments) instead of refusing to start —
//     after a crash the longest valid prefix is the log;
//   - Reap deletes segments fully covered by a snapshot, always keeping
//     the active segment so the LSN sequence never restarts;
//   - the segments on disk are always one contiguous run of LSNs: Open
//     opens exactly what is there (an empty directory starts at LSN 1),
//     and StartAt, for a log that ends below its snapshot, starts a new
//     segment past it and removes every older one.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower/internal/vfs"
)

// SyncPolicy selects when appends become durable.
type SyncPolicy int

const (
	// SyncBatch fsyncs before WaitDurable returns — group-committed, so
	// concurrent appends amortize the fsync. The strongest policy:
	// an acknowledged batch survives power loss.
	SyncBatch SyncPolicy = iota
	// SyncInterval fsyncs on a background timer; WaitDurable returns
	// immediately. Bounded loss window (≤ Interval) at ingest latency
	// close to SyncNone.
	SyncInterval
	// SyncNone never fsyncs explicitly; durability is whenever the OS
	// writes back. Survives process crashes (the page cache persists),
	// not power loss.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncInterval:
		return "interval"
	default:
		return "off"
	}
}

// ParseSyncPolicy maps the powserved -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "interval":
		return SyncInterval, nil
	case "off", "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch, interval, or off)", s)
}

// Options parameterizes a Log.
type Options struct {
	// SegmentBytes is the rotation threshold. 0 means 64 MiB.
	SegmentBytes int64
	// Policy selects the fsync policy. Zero value is SyncBatch.
	Policy SyncPolicy
	// Interval is the SyncInterval period. 0 means 100 ms.
	Interval time.Duration
	// ObserveAppend, if set, receives the wall time of each record write
	// (frame encode + file write, excluding lock wait). Must be cheap
	// and non-blocking — it runs under the log's write lock.
	ObserveAppend func(time.Duration)
	// ObserveFsync, if set, receives the wall time of every segment
	// fsync (group commits, rotations, and explicit Syncs).
	ObserveFsync func(time.Duration)
	// ObserveGroupCommit, if set, receives the number of records each
	// group-commit fsync made durable — the batch size one leader's
	// fsync amortized over.
	ObserveGroupCommit func(records int64)
	// FS is the filesystem the log reads and writes through. Nil means
	// vfs.OS (the real disk); tests inject a vfs.FaultFS here.
	FS vfs.FS
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Appends          int64  // records appended this process
	Fsyncs           int64  // fsync calls on segment files
	Rotations        int64  // segment rotations
	Segments         int    // live segment files
	TruncatedBytes   int64  // bytes discarded by Open's torn/corrupt truncation
	DroppedSegments  int    // whole segments discarded past a corrupt frame
	RecoveredRecords int64  // valid records found by Open
	LastLSN          uint64 // highest assigned LSN (0 = empty log)
	SyncedLSN        uint64 // highest LSN known durable
	Poisoned         bool   // a failed write/fsync permanently sealed the log
}

// Log is an append-only write-ahead log over one directory. All methods
// are safe for concurrent use.
type Log struct {
	dir  string
	opts Options
	fsys vfs.FS

	// mu guards the active segment (writes, rotation) and LSN assignment.
	mu       sync.Mutex
	f        vfs.File
	fSize    int64
	segFirst uint64
	nextLSN  uint64 // next LSN to assign
	err      error  // sticky write failure: the log is dead past it
	frame    []byte // append's encode buffer, reused across records
	// index is the sparse offset index of the active segment (see
	// indexEntry): ascending, always valid, possibly incomplete.
	index []indexEntry

	// smu guards the group-commit state. Lock order: mu may be taken
	// while holding nothing; smu may be taken while holding mu (rotation
	// publishing its fsync); never mu while holding smu.
	smu     sync.Mutex
	scond   *sync.Cond
	synced  uint64
	syncing bool
	syncErr error

	stop chan struct{} // interval syncer + close
	wg   sync.WaitGroup

	// holds pins records above a per-holder LSN against reaping (see
	// SetReapHold). Guarded by mu.
	holds map[string]uint64

	appends, fsyncs, rotations atomic.Int64
	truncatedBytes             int64
	droppedSegments            int
	recoveredRecords           int64

	// cancelled holds the LSNs that tombstones cancel, for as long as the
	// records are on disk: Open's scan seeds it, AppendTombstone adds to
	// it and Reap prunes it (see Cancelled). cmu guards it and is taken
	// while holding nothing else.
	cmu       sync.Mutex
	cancelled map[uint64]struct{}

	closed bool
}

// indexEntry records that the frame of record lsn starts at byte off of
// the active segment. Open's scan and append add one at most every
// indexStride bytes, so ReadRange can seek next to the records it was
// asked for instead of scanning the segment from its header. The index
// covers the active segment from its first record on.
type indexEntry struct {
	lsn uint64
	off int64
}

// addIndexEntry notes the frame of record lsn at byte off, if it lies
// indexStride bytes or more past the last entry (or is the first).
func addIndexEntry(index []indexEntry, lsn uint64, off int64) []indexEntry {
	if n := len(index); n == 0 || off-index[n-1].off >= indexStride {
		index = append(index, indexEntry{lsn: lsn, off: off})
	}
	return index
}

// indexStride spaces index entries by bytes, not records, so a storm of
// 17-byte tombstones cannot grow the index faster than large records do:
// a segment holds at most SegmentBytes/indexStride+1 entries.
const indexStride = 4 << 10

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = fmt.Errorf("wal: log is closed")

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstLSN, segSuffix)
}

// listSegments returns the segment file names in dir, sorted ascending
// by first LSN (lexicographic over the zero-padded name).
func listSegments(fsys vfs.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), segPrefix) && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Open scans dir, truncates any torn or corrupt tail, and returns a Log
// positioned to append after the last valid record. The caller must hold
// the directory lock (LockDirFS) for the lifetime of the Log.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	st, err := opts.FS.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: data dir %s: %w", dir, err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("wal: data dir %s is not a directory", dir)
	}
	l := &Log{dir: dir, opts: opts, fsys: opts.FS, stop: make(chan struct{})}
	l.scond = sync.NewCond(&l.smu)
	if err := l.recoverSegments(); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		l.wg.Add(1)
		go l.intervalSyncer()
	}
	return l, nil
}

// recoverSegments scans every segment in order, truncating the log at
// the first torn/corrupt frame, and opens (or creates) the active
// segment for appending.
func (l *Log) recoverSegments() error {
	names, err := listSegments(l.fsys, l.dir)
	if err != nil {
		return fmt.Errorf("wal: listing %s: %w", l.dir, err)
	}
	expect := uint64(0) // expected firstLSN of the next segment (0 = any)
	lastIdx := -1
	// The scan reads and CRCs every frame anyway, so it also notes which
	// LSNs the tombstones cancel and indexes the frames: per segment, kept
	// only once the segment (or its valid prefix) is known to stay in the
	// log. The last index kept is the active segment's, whole from its
	// header, so a read of records written before this Open seeks too.
	l.cancelled = map[uint64]struct{}{}
	var cancelled []uint64
	var index, keptIndex []indexEntry
	keep := func() {
		for _, lsn := range cancelled {
			l.cancelled[lsn] = struct{}{}
		}
		keptIndex, index = index, keptIndex
	}
	for i, name := range names {
		path := filepath.Join(l.dir, name)
		cancelled, index = cancelled[:0], index[:0]
		// A segment is kept only if its header's first LSN is its name's,
		// so the name numbers the index's records.
		nameLSN, nameOK := firstLSNFromName(name)
		lsn, off := nameLSN, int64(segHeaderSize)
		first, records, valid, scanErr := l.scanFile(path, 0, func(typ RecordType, body []byte) error {
			if typ == RecordTombstone {
				cancelled = append(cancelled, DecodeTombstone(body))
			}
			index = addIndexEntry(index, lsn, off)
			lsn++
			off += frameHeaderSize + int64(len(body))
			return nil
		})
		mismatch := scanErr == nil &&
			(!nameOK || nameLSN != first || (expect != 0 && first != expect))
		if scanErr != nil || mismatch {
			if scanErr != nil && !truncatable(scanErr) {
				return fmt.Errorf("wal: scanning %s: %w", name, scanErr)
			}
			// Truncate this segment at its valid prefix and drop
			// everything after it — the log is its longest valid prefix.
			if mismatch {
				// A continuity break means this whole segment is not part
				// of the valid prefix.
				valid = 0
			}
			if err := l.truncateAt(path, valid, names[i+1:]); err != nil {
				return err
			}
			if valid < segHeaderSize {
				// Nothing usable: remove the husk entirely.
				if err := l.fsys.Remove(path); err != nil {
					return fmt.Errorf("wal: removing unusable segment %s: %w", name, err)
				}
				lastIdx = i - 1
			} else {
				keep()
				l.recoveredRecords += int64(records)
				l.nextLSN = first + uint64(records)
				lastIdx = i
			}
			break
		}
		keep()
		l.recoveredRecords += int64(records)
		l.nextLSN = first + uint64(records)
		expect = first + uint64(records)
		lastIdx = i
	}

	if lastIdx < 0 {
		// Empty log: it starts at LSN 1.
		l.nextLSN = 1
		return l.newSegment(1)
	}
	path := filepath.Join(l.dir, names[lastIdx])
	f, err := l.fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening active segment: %w", err)
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: seeking active segment: %w", err)
	}
	l.f, l.fSize = f, size
	l.segFirst, _ = firstLSNFromName(names[lastIdx])
	l.index = keptIndex
	l.publishSynced(l.nextLSN - 1) // everything on disk at open is as durable as it gets
	return nil
}

// truncateAt truncates path to valid bytes and deletes the later
// segments, accounting both in the recovery counters.
func (l *Log) truncateAt(path string, valid int64, later []string) error {
	st, err := l.fsys.Stat(path)
	if err != nil {
		return fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if st.Size() > valid {
		if err := l.fsys.Truncate(path, valid); err != nil {
			return fmt.Errorf("wal: truncating %s: %w", path, err)
		}
		l.truncatedBytes += st.Size() - valid
	}
	for _, name := range later {
		p := filepath.Join(l.dir, name)
		if st, err := l.fsys.Stat(p); err == nil {
			l.truncatedBytes += st.Size()
		}
		if err := l.fsys.Remove(p); err != nil {
			return fmt.Errorf("wal: dropping segment %s past corruption: %w", name, err)
		}
		l.droppedSegments++
	}
	return nil
}

// scanFile scans one segment file from byte offset off: from its header
// (and returns the header's first LSN) when off is 0, else from the frame
// boundary there. body is only valid during fn.
func (l *Log) scanFile(path string, off int64, fn func(typ RecordType, body []byte) error) (first uint64, records int, valid int64, err error) {
	f, err := l.fsys.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	r := &countedReader{Reader: f, n: off}
	if off == 0 {
		first, records, valid, err = scanSegment(r, fn)
	} else if _, err = f.Seek(off, io.SeekStart); err == nil {
		records, valid, err = scanFramesAt(r, off, fn)
	}
	if err == nil || errors.Is(err, ErrTorn) {
		// A scan ends, cleanly or at a torn tail, only where the file does:
		// reads that stopped short of that failed, and must not cut the log.
		if st, serr := l.fsys.Stat(path); serr != nil {
			err = serr
		} else if r.n < st.Size() {
			err = fmt.Errorf("wal: reading %s: reads ended at byte %d of %d: %w", filepath.Base(path), r.n, st.Size(), io.ErrUnexpectedEOF)
		}
	}
	return first, records, valid, err
}

// countedReader counts the bytes it delivers on top of n.
type countedReader struct {
	io.Reader
	n int64
}

func (r *countedReader) Read(p []byte) (n int, err error) {
	n, err = r.Reader.Read(p)
	r.n += int64(n)
	return n, err
}

// firstLSNFromName parses a name segmentName wrote: the prefix, exactly
// twenty decimal digits, the suffix.
func firstLSNFromName(name string) (uint64, bool) {
	const digits = 20
	if len(name) != len(segPrefix)+digits+len(segSuffix) ||
		!strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	// ParseUint takes neither a sign nor, in base 10, an underscore.
	lsn, err := strconv.ParseUint(name[len(segPrefix):len(segPrefix)+digits], 10, 64)
	return lsn, err == nil
}

// newSegment creates and activates a segment starting at firstLSN,
// fsyncing the directory so the file itself survives a crash.
func (l *Log) newSegment(firstLSN uint64) error {
	path := filepath.Join(l.dir, segmentName(firstLSN))
	f, err := l.fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	hdr := appendSegmentHeader(nil, firstLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := syncDir(l.fsys, l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.fSize, l.segFirst = f, int64(len(hdr)), firstLSN
	l.index = l.index[:0]
	return nil
}

func syncDir(fsys vfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: syncing dir: %w", err)
	}
	return nil
}

// Append writes one data record and returns its LSN. The record is
// buffered in the OS when Append returns; call WaitDurable (SyncBatch)
// to block until it is fsynced.
func (l *Log) Append(body []byte) (uint64, error) {
	return l.append(RecordData, body)
}

// AppendTombstone logs a cancellation of the record at cancelled: it was
// appended but then refused upstream (e.g. ingest queue full), so replay
// must not apply it. Cancelled reports it from before the write on, so a
// failed write still keeps the record out of this process's replication
// stream.
func (l *Log) AppendTombstone(cancelled uint64) (uint64, error) {
	l.cmu.Lock()
	l.cancelled[cancelled] = struct{}{}
	l.cmu.Unlock()
	return l.append(RecordTombstone, tombstoneBody(cancelled))
}

// Cancelled reports whether a tombstone cancels the record at lsn: one
// that Open's scan read in the prefix of the log it kept (a segment
// dropped for a continuity break contributes none; the frames before a
// torn tail do), or one appended since. Reap forgets the cancellations of
// the records it deletes. Safe to call while appends run.
func (l *Log) Cancelled(lsn uint64) bool {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	_, ok := l.cancelled[lsn]
	return ok
}

func (l *Log) append(typ RecordType, body []byte) (uint64, error) {
	if int64(len(body)) > maxBody {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame limit", len(body), maxBody)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if l.fSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return 0, err
		}
	}
	start := time.Now()
	l.frame = AppendFrame(l.frame[:0], typ, body)
	if _, err := l.f.Write(l.frame); err != nil {
		// Try to roll the (possibly partial) frame back off the tail so a
		// transient failure — ENOSPC above all — leaves the log exactly as
		// it was: the caller's batch was never assigned an LSN or acked,
		// and the next append lands at the same well-defined offset. Only
		// if the rollback itself fails is the tail state unknown, and then
		// the log is permanently poisoned.
		werr := fmt.Errorf("wal: append: %w", err)
		if terr := l.f.Truncate(l.fSize); terr != nil {
			l.err = werr
			return 0, l.err
		}
		if _, serr := l.f.Seek(l.fSize, 0); serr != nil {
			l.err = werr
			return 0, l.err
		}
		return 0, werr
	}
	if l.opts.ObserveAppend != nil {
		l.opts.ObserveAppend(time.Since(start))
	}
	lsn := l.nextLSN
	l.index = addIndexEntry(l.index, lsn, l.fSize)
	l.fSize += int64(len(l.frame))
	l.nextLSN++
	l.appends.Add(1)
	return lsn, nil
}

// rotateLocked fsyncs and retires the active segment and starts a new
// one at the current nextLSN. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotating fsync: %w", err)
	}
	if l.opts.ObserveFsync != nil {
		l.opts.ObserveFsync(time.Since(start))
	}
	l.fsyncs.Add(1)
	// Everything in the old segment is durable now; tell any group-commit
	// waiters before the file handle goes away under them.
	l.publishSynced(l.nextLSN - 1)
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	l.rotations.Add(1)
	return l.newSegment(l.nextLSN)
}

// publishSynced advances the durable watermark and wakes waiters.
func (l *Log) publishSynced(lsn uint64) {
	l.smu.Lock()
	if lsn > l.synced {
		l.synced = lsn
	}
	l.scond.Broadcast()
	l.smu.Unlock()
}

// WaitDurable blocks until the record at lsn is durable under the
// configured policy: with SyncBatch it joins the group commit (one
// leader fsyncs for every record written so far); with SyncInterval or
// SyncNone it returns immediately — those policies trade the tail for
// latency by design.
func (l *Log) WaitDurable(lsn uint64) error {
	if l.opts.Policy != SyncBatch {
		return nil
	}
	return l.syncTo(lsn)
}

// Sync forces an fsync covering every record appended so far, regardless
// of policy — the barrier snapshots use before persisting state that
// references WAL contents.
func (l *Log) Sync() error {
	l.mu.Lock()
	last := l.nextLSN - 1
	l.mu.Unlock()
	if last == 0 {
		return nil
	}
	return l.syncTo(last)
}

// syncTo is the leader/follower group commit: the first waiter in
// becomes the leader and fsyncs once for everyone queued behind it.
func (l *Log) syncTo(lsn uint64) error {
	l.smu.Lock()
	defer l.smu.Unlock()
	for l.synced < lsn {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.syncing {
			l.scond.Wait()
			continue
		}
		l.syncing = true
		prevSynced := l.synced
		l.smu.Unlock()

		l.mu.Lock()
		f := l.f
		target := l.nextLSN - 1
		werr := l.err
		closed := l.closed
		l.mu.Unlock()

		var err error
		switch {
		case closed:
			err = ErrClosed
		case werr != nil:
			err = werr
		default:
			start := time.Now()
			err = f.Sync()
			if err == nil {
				if l.opts.ObserveFsync != nil {
					l.opts.ObserveFsync(time.Since(start))
				}
				if l.opts.ObserveGroupCommit != nil && target > prevSynced {
					l.opts.ObserveGroupCommit(int64(target - prevSynced))
				}
				l.fsyncs.Add(1)
			} else {
				// fsyncgate: after a failed fsync the kernel may have
				// dropped the dirty pages while leaving the file "clean",
				// so retrying the fsync and acknowledging on success would
				// ack data that never reached the disk. If the handle we
				// synced is still the active segment this is a genuine
				// durability failure: permanently poison the log so no
				// later append or retried sync can lie. If rotation
				// replaced the file under us, its own fsync already
				// covered our LSNs (or poisoned the log itself) and this
				// error is a benign race on a closed handle.
				l.mu.Lock()
				if l.f == f && l.err == nil {
					l.err = fmt.Errorf("wal: fsync failed, log sealed: %w", err)
				}
				l.mu.Unlock()
			}
		}

		l.smu.Lock()
		l.syncing = false
		if err == nil {
			if target > l.synced {
				l.synced = target
			}
		} else if l.synced < lsn {
			// A rotation may have fsynced and closed the file under us, in
			// which case synced already covers lsn and the error is benign;
			// otherwise durability is genuinely broken — make it sticky so
			// no later acknowledgement can lie.
			l.syncErr = err
		}
		l.scond.Broadcast()
	}
	return nil
}

// intervalSyncer drives the SyncInterval policy.
func (l *Log) intervalSyncer() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			_ = l.Sync()
		}
	}
}

// Replay streams every record on disk in LSN order: ReadRange from the
// oldest record to LastLSN. It must not run concurrently with Append.
func (l *Log) Replay(fn func(lsn uint64, typ RecordType, body []byte) error) error {
	first, err := l.FirstLSN()
	if err != nil {
		return err
	}
	return l.ReadRange(first, l.LastLSN(), fn)
}

// Reap deletes segments whose records are all ≤ throughLSN (covered by a
// snapshot), always keeping the active segment, and forgets the
// cancellations of the records it deleted. Registered reap holds
// (SetReapHold) lower the effective threshold so records a follower has
// not acknowledged stay streamable.
func (l *Log) Reap(throughLSN uint64) (removed int, err error) {
	return l.removeThrough(l.reapCeiling(throughLSN))
}

// removeThrough is Reap without the holds: it deletes every segment but
// the active one whose records are all ≤ through.
func (l *Log) removeThrough(through uint64) (removed int, err error) {
	names, err := listSegments(l.fsys, l.dir)
	if err != nil {
		return 0, fmt.Errorf("wal: listing %s: %w", l.dir, err)
	}
	l.mu.Lock()
	activeFirst := l.segFirst
	l.mu.Unlock()
	var kept uint64 // the oldest LSN left on disk, once a segment goes
	for i := 0; i+1 < len(names); i++ {
		first, ok := firstLSNFromName(names[i])
		if !ok || first == activeFirst {
			continue
		}
		next, ok := firstLSNFromName(names[i+1])
		if !ok {
			continue
		}
		// Segment i holds LSNs [first, next): fully covered iff next-1 ≤ through.
		if next-1 <= through {
			if err := l.fsys.Remove(filepath.Join(l.dir, names[i])); err != nil {
				return removed, fmt.Errorf("wal: reaping %s: %w", names[i], err)
			}
			removed++
			kept = next
		}
	}
	l.cmu.Lock()
	for lsn := range l.cancelled {
		if lsn < kept {
			delete(l.cancelled, lsn)
		}
	}
	l.cmu.Unlock()
	return removed, nil
}

// StartAt starts the log over at next, for a log that ends below what a
// snapshot already holds: it makes a new, empty active segment at next,
// removes every older segment, whatever the reap holds, and fsyncs the
// directory. The LSNs below next are then in no segment, so no record
// reuses one, ReadRange refuses them with a *ReapedError, and the
// segments on disk stay one contiguous run. A crash before the removals
// are durable leaves the new segment past a gap, which Open drops as
// it drops any break in the run. next must be at least LastLSN+1.
func (l *Log) StartAt(next uint64) error {
	l.mu.Lock()
	switch {
	case l.closed:
		l.mu.Unlock()
		return ErrClosed
	case l.err != nil:
		l.mu.Unlock()
		return l.err
	case next < l.nextLSN:
		l.mu.Unlock()
		return fmt.Errorf("wal: starting at lsn %d would reuse lsns up to %d", next, l.nextLSN-1)
	}
	old := l.f
	if err := l.newSegment(next); err != nil {
		l.mu.Unlock()
		return err
	}
	old.Close() // its segment goes next; nothing in it needs a sync
	l.nextLSN = next
	l.publishSynced(next - 1)
	l.mu.Unlock()
	if _, err := l.removeThrough(next - 1); err != nil {
		return err
	}
	return syncDir(l.fsys, l.dir)
}

// LastLSN returns the highest assigned LSN (0 if the log is empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	names, _ := listSegments(l.fsys, l.dir)
	l.mu.Lock()
	last := l.nextLSN - 1
	poisoned := l.err != nil
	l.mu.Unlock()
	l.smu.Lock()
	synced := l.synced
	l.smu.Unlock()
	return Stats{
		Appends:          l.appends.Load(),
		Fsyncs:           l.fsyncs.Load(),
		Rotations:        l.rotations.Load(),
		Segments:         len(names),
		TruncatedBytes:   l.truncatedBytes,
		DroppedSegments:  l.droppedSegments,
		RecoveredRecords: l.recoveredRecords,
		LastLSN:          last,
		SyncedLSN:        synced,
		Poisoned:         poisoned,
	}
}

// Err returns the log's sticky failure: non-nil once a write or fsync
// has permanently sealed the log (fsyncgate semantics — a poisoned log
// never accepts or acknowledges another record until restart/recovery).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// ScrubCold re-reads every cold (non-active) segment end to end,
// re-verifying each frame CRC — the WAL half of the integrity scrubber.
// It counts corrupt or torn cold segments without modifying them:
// unlike blocks, a WAL segment cannot be quarantined (removing it would
// break LSN contiguity for replay and replication); detection surfaces
// through metrics and the scrub report so the operator can re-snapshot
// and reap the damaged range.
func (l *Log) ScrubCold() (scanned, corrupt int, err error) {
	names, err := listSegments(l.fsys, l.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: listing %s: %w", l.dir, err)
	}
	l.mu.Lock()
	activeFirst := l.segFirst
	l.mu.Unlock()
	for _, name := range names {
		if first, ok := firstLSNFromName(name); ok && first == activeFirst {
			continue // the active segment legitimately has a volatile tail
		}
		scanned++
		_, _, _, scanErr := l.scanFile(filepath.Join(l.dir, name), 0, nil)
		if scanErr != nil {
			corrupt++
		}
	}
	return scanned, corrupt, nil
}

// Close fsyncs the tail and closes the active segment. Waiters blocked
// in WaitDurable are released.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var syncErr error
	if l.err == nil && l.f != nil {
		if syncErr = l.f.Sync(); syncErr == nil {
			l.fsyncs.Add(1)
			l.publishSynced(l.nextLSN - 1)
		} else {
			// Poison before closing becomes observable: a concurrent
			// WaitDurable that wakes on the close broadcast must find the
			// sync error already sticky, never a clean "closed" state that
			// could be mistaken for durability (fsyncgate: the records it
			// was waiting on may be gone from the page cache).
			l.err = fmt.Errorf("wal: close fsync failed, log sealed: %w", syncErr)
			l.smu.Lock()
			if l.syncErr == nil {
				l.syncErr = syncErr
			}
			l.smu.Unlock()
		}
	}
	closeErr := l.f.Close()
	l.closed = true
	l.mu.Unlock()

	close(l.stop)
	l.wg.Wait()

	// Wake any stragglers so they observe the closed log.
	l.smu.Lock()
	l.scond.Broadcast()
	l.smu.Unlock()

	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
