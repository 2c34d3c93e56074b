package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/obs"
	"hpcpower/internal/repl"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/vfs"
	"hpcpower/internal/wal"
)

// DurabilityConfig turns on crash-safe ingest: every accepted batch is
// appended to a write-ahead log in Dir before it is enqueued, periodic
// snapshots bound replay time, and Recover rebuilds the exact pre-crash
// analytics from the latest snapshot plus the WAL tail.
type DurabilityConfig struct {
	// Dir is the data directory. It must already exist and be writable;
	// NewDurable fails fast otherwise and refuses to share it with a
	// running instance (flock).
	Dir string
	// Policy is the fsync discipline (wal.SyncBatch / SyncInterval /
	// SyncNone). SyncBatch acks a 202 only after the record is fsynced.
	Policy wal.SyncPolicy
	// SyncInterval is the cadence for wal.SyncInterval. 0 means 100 ms.
	SyncInterval time.Duration
	// SegmentBytes rotates WAL segments. 0 means 64 MiB.
	SegmentBytes int64
	// SnapshotInterval is the time between snapshots. 0 means 20 s.
	SnapshotInterval time.Duration
	// SnapshotEvery also snapshots after this many WAL appends since the
	// last one. 0 means 4096.
	SnapshotEvery int64
	// Replication configures the node's replication role; nil means a
	// standalone primary (streamable, never following).
	Replication *ReplicationConfig
	// FS is the filesystem every durable artifact (WAL segments,
	// snapshots, lock file, disk probe) goes through. Nil means vfs.OS;
	// tests inject a vfs.FaultFS here.
	FS vfs.FS
	// DiskCheckInterval is the cadence of the storage-health monitor
	// that flips ingest into degraded mode. 0 means 2 s.
	DiskCheckInterval time.Duration
	// DiskLowBytes degrades ingest when the data filesystem's free
	// space falls below it; once degraded on space, ingest reopens only
	// when free space exceeds twice it. 0 disables the watermark check
	// (the write probe still runs).
	DiskLowBytes int64
}

// keepSnapshots is how many snapshot files a data directory retains.
const keepSnapshots = 3

// epochFileName is the node's epoch record (repl.EpochFile) in Dir.
const epochFileName = "EPOCH"

func (c *DurabilityConfig) withDefaults() DurabilityConfig {
	d := *c
	if d.SyncInterval <= 0 {
		d.SyncInterval = 100 * time.Millisecond
	}
	if d.SnapshotInterval <= 0 {
		d.SnapshotInterval = 20 * time.Second
	}
	if d.SnapshotEvery <= 0 {
		d.SnapshotEvery = 4096
	}
	if d.FS == nil {
		d.FS = vfs.OS
	}
	if d.DiskCheckInterval <= 0 {
		d.DiskCheckInterval = 2 * time.Second
	}
	return d
}

// snapshotImage is the payload of one snapshot file: the full TSDB and
// dedup state plus the apply frontier, laid out by encodeSnapshotImage
// (snapimage.go). Replay applies exactly the WAL records with
// LSN > AppliedLSN and not in Extras — everything else is already inside
// the image.
type snapshotImage struct {
	Store *tsdb.StoreState   `json:"store"`
	Dedup *tsdb.DeduperState `json:"dedup"`
	// AppliedLSN is the apply watermark: every record with LSN ≤ it is in
	// Store. Extras lists the applied LSNs above the watermark (records
	// applied out of order around in-flight neighbors).
	AppliedLSN uint64   `json:"applied_lsn"`
	Extras     []uint64 `json:"extras,omitempty"`
	// ReplLSN is the highest primary LSN a follower had durably applied
	// at capture time; recovery resumes the pull loop just after it.
	// ReplExtras carries the bootstrap-extra set (see replState) so a
	// follower crash after a bootstrap cannot double-apply them.
	ReplLSN    uint64   `json:"repl_lsn,omitempty"`
	ReplExtras []uint64 `json:"repl_extras,omitempty"`
	// Anomaly is the alert-engine state (hysteresis machines + event
	// ring), captured at the same batch boundary as Store — the job
	// fingerprints themselves ride inside Store. Absent when the server
	// runs without an engine.
	Anomaly *anomaly.EngineState `json:"anomaly,omitempty"`
}

// RecoveryReport summarizes one Recover call, for logs and /metrics.
type RecoveryReport struct {
	SnapshotFound    bool
	SnapshotLSN      uint64
	SnapshotsSkipped int           // corrupt snapshot files skipped over
	SnapshotBytes    int           // payload size of the snapshot that was loaded
	SnapshotLoad     time.Duration // its read + decode + install; Duration − SnapshotLoad is WAL open + replay
	SnapshotLegacy   bool          // it was the all-JSON image written before the binary format
	StaleLock        bool
	RecordsReplayed  int64
	SamplesReplayed  int64
	RecordsSkipped   int64 // already in the snapshot (LSN gate)
	Tombstoned       int64 // cancelled by a tombstone
	DecodeErrors     int64
	TruncatedBytes   int64
	DroppedSegments  int
	Duration         time.Duration
}

// applyTracker tracks which WAL LSNs have been folded into the store: a
// watermark (every LSN ≤ it is done) plus the sparse set of done LSNs
// above it. LSNs are contiguous, so the watermark chases the set.
type applyTracker struct {
	mu        sync.Mutex
	watermark uint64
	done      map[uint64]struct{}
}

func newApplyTracker(watermark uint64) *applyTracker {
	return &applyTracker{watermark: watermark, done: map[uint64]struct{}{}}
}

func (t *applyTracker) markDone(lsn uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lsn <= t.watermark {
		return
	}
	t.done[lsn] = struct{}{}
	for {
		if _, ok := t.done[t.watermark+1]; !ok {
			return
		}
		delete(t.done, t.watermark+1)
		t.watermark++
	}
}

// frontierLSN returns just the watermark — the hot-path accessor the
// replication watermark publisher uses (no extras allocation).
func (t *applyTracker) frontierLSN() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.watermark
}

// frontier returns the watermark and the sorted extras above it.
func (t *applyTracker) frontier() (uint64, []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	extras := make([]uint64, 0, len(t.done))
	for lsn := range t.done {
		extras = append(extras, lsn)
	}
	sort.Slice(extras, func(a, b int) bool { return extras[a] < extras[b] })
	return t.watermark, extras
}

// durability owns the server's crash-safety machinery: the data-dir
// lock, the WAL, the apply tracker, and the snapshot scheduler.
type durability struct {
	cfg  DurabilityConfig
	fsys vfs.FS
	lock *wal.FileLock
	log  *wal.Log

	// disk is the storage-health monitor state (see disk.go).
	disk diskState

	// applyMu is the snapshot-consistency lock and seqMu orders WAL
	// appends with enqueues; pipeline.go states who takes them and when.
	applyMu sync.RWMutex
	seqMu   sync.Mutex
	// tracker is swapped wholesale when a deposed primary rejoins
	// (election.go), and the shed path must read it without applyMu —
	// hence the atomic pointer rather than a plain field.
	tracker atomic.Pointer[applyTracker]

	// tombstoned is the live set of cancelled LSNs (refused batches whose
	// WAL record must never be applied or streamed). Seeded by the WAL's
	// open scan, extended by the pipeline's cancel stage,
	// and pruned below the oldest on-disk LSN whenever a snapshot reaps a
	// segment.
	tombMu     sync.Mutex
	tombstoned map[uint64]struct{}

	// repl is the node's replication state; non-nil for every durable
	// server (a standalone primary is just a primary with no followers).
	repl *replState

	appendsSinceSnap atomic.Int64
	snapLSN          atomic.Uint64 // frontier watermark of the last snapshot
	snapshots        atomic.Int64
	snapshotErrors   atomic.Int64
	snapLastBytes    atomic.Int64 // payload size of the last snapshot
	snapLastNanos    atomic.Int64 // capture → renamed file, last snapshot

	recovered atomic.Bool
	report    RecoveryReport

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// openDurability fail-fasts on the data dir (missing, unwritable, or
// locked by a live instance) and opens the WAL without replaying it.
func openDurability(cfg DurabilityConfig) (*durability, error) {
	cfg = cfg.withDefaults()
	rcfg, err := cfg.Replication.withDefaults()
	if err != nil {
		return nil, err
	}
	lock, err := wal.LockDirFS(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, err
	}
	// Under the lock a temp file is a dead instance's; a snapshot's is
	// megabytes.
	vfs.RemoveTemps(cfg.FS, cfg.Dir)
	ep, err := repl.OpenEpochFile(cfg.FS, filepath.Join(cfg.Dir, epochFileName))
	if err != nil {
		lock.Unlock()
		return nil, err
	}
	d := &durability{
		cfg:        cfg,
		fsys:       cfg.FS,
		lock:       lock,
		tombstoned: map[uint64]struct{}{},
		stopc:      make(chan struct{}),
	}
	d.tracker.Store(newApplyTracker(0))
	d.repl = newReplState(rcfg, ep, d)
	return d, nil
}

// decodeWALBody decodes one WAL or replication record into dst[:0]: the
// single-pass scanner for the canonical form every encoder of this
// repository writes, encoding/json for anything else (a record written
// by a foreign tool, or one a future version extends).
func (s *Server) decodeWALBody(body []byte, dst []trace.PowerSample) (trace.WALRecord, error) {
	if rec, ok := trace.ScanWALRecord(body, dst); ok {
		return rec, nil
	}
	s.metrics.decodeFallback.Inc()
	var rec trace.WALRecord
	err := json.Unmarshal(body, &rec)
	return rec, err
}

// replayBuffers is how many decoded records replay's decoder may run ahead
// of its consumer, each in a sample buffer of its own that the consumer
// hands back. Two would already overlap decode with apply; four absorb a
// run of short records behind a long one. More buys nothing: replay goes
// at the pace of the slower stage, not of the hand-off.
const replayBuffers = 4

// replay applies every data record past the snapshot frontier, in LSN
// order — the order the live server applied them — and returns the
// highest primary LSN a replayed record carried. Dedup marks are
// re-recorded but never gate replay: a mark captured in the snapshot may
// belong to a record that was still in flight at capture time, and
// skipping it here would lose acknowledged data.
//
// It is a two-stage pipeline: the log.Replay callback reads, filters and
// decodes; one consumer goroutine (applyReplayed) stamps and folds in
// channel order, which is LSN order. The consumer has exited by the time
// replay returns, with an error or without.
func (s *Server) replay(log *wal.Log, img *snapshotImage, tombstoned map[uint64]struct{}, rep *RecoveryReport) (maxPLSN uint64, err error) {
	applied := make(map[uint64]struct{}, len(img.Extras))
	for _, e := range img.Extras {
		applied[e] = struct{}{}
	}
	// Neither the store nor the engine keeps a batch, so the sample
	// buffers go round: free → decoder → decoded → consumer → free.
	free := make(chan []trace.PowerSample, replayBuffers)
	for i := 0; i < replayBuffers; i++ {
		free <- nil
	}
	// One slot per buffer: a send never waits for anything but a buffer.
	decoded := make(chan trace.WALRecord, replayBuffers)
	var folded replayTally
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.applyReplayed(decoded, free, &folded)
	}()
	err = log.Replay(func(lsn uint64, typ wal.RecordType, body []byte) error {
		if typ != wal.RecordData {
			return nil
		}
		if _, ok := tombstoned[lsn]; ok {
			rep.Tombstoned++
			return nil
		}
		if lsn <= img.AppliedLSN {
			rep.RecordsSkipped++
			return nil
		}
		if _, ok := applied[lsn]; ok {
			rep.RecordsSkipped++
			return nil
		}
		buf := <-free
		wb, err := s.decodeWALBody(body, buf)
		if err != nil {
			free <- buf
			rep.DecodeErrors++
			return nil
		}
		if wb.PLSN > maxPLSN {
			maxPLSN = wb.PLSN
		}
		decoded <- wb
		return nil
	})
	close(decoded)
	<-done
	rep.RecordsReplayed = folded.records
	rep.SamplesReplayed = folded.samples
	rep.DecodeErrors += folded.refused
	return maxPLSN, err
}

// replayTally is the consumer's share of the RecoveryReport, read by
// replay once the consumer is done.
type replayTally struct {
	records, samples int64
	refused          int64 // decoded, but the store would not take it
}

// applyReplayed is replay's consumer: until replay joins it, the only
// writer of the store, the dedup index and the alert engine.
func (s *Server) applyReplayed(decoded <-chan trace.WALRecord, free chan<- []trace.PowerSample, tally *replayTally) {
	for wb := range decoded {
		s.stamp(wb.Agent, wb.Seq)
		if err := s.fold(wb.Samples, wb.Trace); err != nil {
			tally.refused++
		} else {
			tally.records++
			tally.samples += int64(len(wb.Samples))
		}
		free <- wb.Samples[:0]
	}
}

// install replaces the store, the dedup index and the alert engine's
// state with a snapshot image's: what Recover does once on a fresh server
// and a follower's bootstrap does over a live one, under applyMu. Store
// and dedup index are each built to the side and swapped in, so an image
// either of them refuses leaves that one untouched. A nil alert state (a
// writer running without an engine) resets ours, and Restore never
// re-delivers the events it carries.
func (s *Server) install(img *snapshotImage) error {
	if img.Store == nil || img.Dedup == nil {
		return fmt.Errorf("snapshot image is missing store or dedup state")
	}
	if err := s.store.InstallState(img.Store); err != nil {
		return err
	}
	if err := s.dedup.InstallState(img.Dedup); err != nil {
		return err
	}
	if s.anom != nil {
		if _, err := s.anom.RestoreState(img.Anomaly); err != nil {
			return fmt.Errorf("restoring anomaly state: %w", err)
		}
	}
	return nil
}

// Recover restores the latest valid snapshot into the store and dedup
// index, opens the WAL (truncating any torn tail), and replays the
// records past the snapshot frontier. It must run before the server
// accepts ingest traffic; /readyz answers 503 until it completes.
func (s *Server) Recover() (*RecoveryReport, error) {
	d := s.dur
	if d == nil {
		return nil, fmt.Errorf("serve: server has no durability configured")
	}
	if d.recovered.Load() {
		return nil, fmt.Errorf("serve: Recover called twice")
	}
	start := time.Now()
	rep := RecoveryReport{StaleLock: d.lock.Stale()}

	snapLSN, payload, found, skipped, err := wal.LatestSnapshotFS(d.fsys, d.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("serve: reading snapshots: %w", err)
	}
	rep.SnapshotsSkipped = skipped
	img := &snapshotImage{}
	if found {
		if img, rep.SnapshotLegacy, err = decodeSnapshotImage(payload); err != nil {
			return nil, fmt.Errorf("serve: snapshot %d payload: %w", snapLSN, err)
		}
		if rep.SnapshotLegacy {
			s.metrics.legacySnapshots.Inc()
		}
		if err := s.install(img); err != nil {
			return nil, fmt.Errorf("serve: restoring snapshot %d: %w", snapLSN, err)
		}
		rep.SnapshotFound, rep.SnapshotLSN = true, img.AppliedLSN
		rep.SnapshotBytes, rep.SnapshotLoad = len(payload), time.Since(start)
	}

	// New appends must never reuse an LSN the snapshot already covers,
	// even if the WAL tail was lost entirely.
	floor := img.AppliedLSN
	for _, e := range img.Extras {
		if e > floor {
			floor = e
		}
	}
	log, err := wal.Open(d.cfg.Dir, wal.Options{
		SegmentBytes: d.cfg.SegmentBytes,
		Policy:       d.cfg.Policy,
		Interval:     d.cfg.SyncInterval,
		NextLSNFloor: floor,
		FS:           d.fsys,
		// Latency hooks feed the serving registry: append and fsync
		// distributions, plus records-per-fsync (group-commit size).
		ObserveAppend:      s.metrics.walAppend.ObserveDuration,
		ObserveFsync:       s.metrics.walFsync.ObserveDuration,
		ObserveGroupCommit: func(records int64) { s.metrics.groupCommit.Observe(float64(records)) },
	})
	if err != nil {
		return nil, fmt.Errorf("serve: opening wal: %w", err)
	}
	d.log = log

	// The log must pick up where the image leaves off. A newer snapshot
	// skipped as corrupt may have reaped the segments in between, and a
	// node started over the gap would serve less than it acked.
	first, err := log.FirstLSN()
	if err != nil {
		return nil, fmt.Errorf("serve: opening wal: %w", err)
	}
	covered := img.AppliedLSN
	for slices.Contains(img.Extras, covered+1) {
		covered++
	}
	if first > covered+1 {
		return nil, fmt.Errorf("serve: wal starts at lsn %d but the snapshot covers lsns up to %d: lsns %d..%d are in neither (%d corrupt snapshot(s) skipped)",
			first, covered, covered+1, first-1, skipped)
	}

	// A tombstone cancels an earlier record, so all of them must be known
	// before anything is applied; the open scan has already read them.
	tombstoned := log.Tombstones()
	maxPLSN, err := s.replay(log, img, tombstoned, &rep)
	if err != nil {
		return nil, fmt.Errorf("serve: wal replay: %w", err)
	}
	if rep.DecodeErrors > 0 {
		s.metrics.logger.Warn("recovery dropped wal records that passed their CRC: acknowledged data is missing from the recovered state",
			slog.Int64("records", rep.DecodeErrors))
	}

	// Everything on disk is now in the store: the frontier is the last
	// LSN the (truncated) WAL holds, or the snapshot floor beyond it.
	wm := log.LastLSN()
	if floor > wm {
		wm = floor
	}
	d.tracker.Store(newApplyTracker(wm))
	d.snapLSN.Store(img.AppliedLSN)
	d.tombMu.Lock()
	d.tombstoned = tombstoned
	d.tombMu.Unlock()

	// Replication state rebuilds from the same artifacts: the snapshot's
	// pull-loop watermark, raised by any primary-stamped records the WAL
	// tail replayed past it.
	rs := d.repl
	// A static primary claims epoch 1 on first boot (0: never led), so a
	// promotion lands at 2 or above; an elected node waits to win one.
	if !rs.isFollower.Load() && rs.epoch.Epoch() == 0 {
		if err := rs.epoch.Lead(1); err != nil {
			return nil, fmt.Errorf("serve: initializing epoch: %w", err)
		}
	}
	ra := img.ReplLSN
	if maxPLSN > ra {
		ra = maxPLSN
	}
	storeMax(&rs.replApplied, ra)
	rs.setBootExtras(img.ReplExtras)
	if !rs.isFollower.Load() {
		// A primary that previously followed (a promoted standby
		// restarting) serves its old pull frontier as the divergence
		// point for its deposed predecessor's rejoin.
		rs.upstreamAtPromote.Store(rs.replApplied.Load())
	}

	st := log.Stats()
	rep.TruncatedBytes = st.TruncatedBytes
	rep.DroppedSegments = st.DroppedSegments
	rep.Duration = time.Since(start)
	d.report = rep
	d.recovered.Store(true)
	s.ready.Store(true)

	d.advanceRepl()
	d.wg.Add(3)
	go d.snapshotLoop(s)
	go d.advanceLoop()
	go d.diskLoop()
	if rs.cfg.Role == RoleFollower {
		if err := rs.startFollowerTo(s, rs.cfg.PrimaryURL, false); err != nil {
			return nil, fmt.Errorf("serve: starting follower pull loop: %w", err)
		}
	}
	return &rep, nil
}

// snapshotLoop takes periodic snapshots, plus one whenever enough WAL
// appends have accumulated since the last.
func (d *durability) snapshotLoop(s *Server) {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.SnapshotInterval / 4)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-d.stopc:
			return
		case <-t.C:
			due := time.Since(last) >= d.cfg.SnapshotInterval && d.appendsSinceSnap.Load() > 0
			if d.appendsSinceSnap.Load() >= d.cfg.SnapshotEvery {
				due = true
			}
			if !due {
				continue
			}
			if _, _, err := d.snapshotOnce(s); err != nil {
				d.snapshotErrors.Add(1)
			}
			last = time.Now()
		}
	}
}

// snapshotOnce captures a consistent (store, dedup, frontier) image,
// makes the WAL durable past it, persists the snapshot, and reaps the
// segments and snapshots it obsoletes. It returns the snapshot's LSN and
// the payload it wrote, which is what a bootstrapping follower is sent.
func (d *durability) snapshotOnce(s *Server) (uint64, []byte, error) {
	start := time.Now()
	d.applyMu.Lock()
	wm, extras := d.tracker.Load().frontier()
	img := snapshotImage{
		Store:      s.store.ExportState(),
		Dedup:      s.dedup.ExportState(),
		AppliedLSN: wm,
		Extras:     extras,
	}
	if rs := d.repl; rs != nil {
		img.ReplLSN = rs.replApplied.Load()
		img.ReplExtras = rs.bootExtraList(img.ReplLSN)
	}
	if s.anom != nil {
		img.Anomaly = s.anom.ExportState()
	}
	pending := d.appendsSinceSnap.Load()
	d.applyMu.Unlock()

	// Durability barrier: a dedup mark inside the image implies its WAL
	// record is on disk — otherwise a crash could lose an acked batch and
	// the snapshot would reject the agent's re-send as a duplicate.
	if err := d.log.Sync(); err != nil {
		return 0, nil, err
	}
	payload, err := encodeSnapshotImage(&img)
	if err != nil {
		return 0, nil, err
	}
	if err := wal.WriteSnapshotFS(d.fsys, d.cfg.Dir, wm, payload); err != nil {
		return 0, nil, err
	}
	d.snapshots.Add(1)
	d.snapLastBytes.Store(int64(len(payload)))
	d.snapLastNanos.Store(int64(time.Since(start)))
	d.snapLSN.Store(wm)
	d.appendsSinceSnap.Add(-pending)
	if removed, _ := d.log.Reap(wm); removed > 0 {
		d.pruneTombstones()
	}
	wal.ReapSnapshotsFS(d.fsys, d.cfg.Dir, keepSnapshots)
	return wm, payload, nil
}

// pruneTombstones forgets cancellations of records that are no longer on
// disk: a reaped LSN can be neither streamed nor replayed, and without
// this the set grows for as long as the queue keeps refusing batches.
func (d *durability) pruneTombstones() {
	first, err := d.log.FirstLSN()
	if err != nil {
		return
	}
	d.tombMu.Lock()
	for lsn := range d.tombstoned {
		if lsn < first {
			delete(d.tombstoned, lsn)
		}
	}
	d.tombMu.Unlock()
}

// collect emits the wal_*, snapshot_*, recovery_*, and repl_* series
// into the registry's exposition — the durability half of /metrics,
// registered as a collector by NewDurable.
func (d *durability) collect(e *obs.Exposition) {
	if d.log != nil {
		st := d.log.Stats()
		e.Counter("powserved_wal_appends_total", float64(st.Appends))
		e.Counter("powserved_wal_fsyncs_total", float64(st.Fsyncs))
		e.Counter("powserved_wal_rotations_total", float64(st.Rotations))
		e.Gauge("powserved_wal_segments", float64(st.Segments))
		e.Gauge("powserved_wal_last_lsn", float64(st.LastLSN))
		e.Gauge("powserved_wal_synced_lsn", float64(st.SyncedLSN))
		e.Counter("powserved_wal_truncated_bytes_total", float64(st.TruncatedBytes))
		e.Counter("powserved_wal_dropped_segments_total", float64(st.DroppedSegments))
		e.Gauge("powserved_wal_poisoned", float64(b2i(st.Poisoned)))
	}
	e.Gauge("powserved_disk_degraded", float64(b2i(d.disk.degraded.Load())))
	e.Gauge("powserved_disk_free_bytes", float64(d.disk.freeBytes.Load()))
	e.Gauge("powserved_disk_total_bytes", float64(d.disk.totalBytes.Load()))
	e.Counter("powserved_disk_transitions_total", float64(d.disk.transitions.Load()))
	e.Counter("powserved_disk_probe_errors_total", float64(d.disk.probeErrors.Load()))
	e.Counter("powserved_snapshots_total", float64(d.snapshots.Load()))
	e.Counter("powserved_snapshot_errors_total", float64(d.snapshotErrors.Load()))
	e.Gauge("powserved_snapshot_last_lsn", float64(d.snapLSN.Load()))
	e.Help("powserved_snapshot_last_bytes", "Payload size of the most recent snapshot written.")
	e.Gauge("powserved_snapshot_last_bytes", float64(d.snapLastBytes.Load()))
	e.Help("powserved_snapshot_last_seconds", "Time the most recent snapshot took, from state capture to the renamed file.")
	e.Gauge("powserved_snapshot_last_seconds", time.Duration(d.snapLastNanos.Load()).Seconds())
	if d.recovered.Load() {
		rep := d.report
		e.Gauge("powserved_recovery_snapshot_found", float64(b2i(rep.SnapshotFound)))
		e.Gauge("powserved_recovery_snapshot_lsn", float64(rep.SnapshotLSN))
		e.Gauge("powserved_recovery_snapshots_skipped", float64(rep.SnapshotsSkipped))
		e.Help("powserved_recovery_snapshot_bytes", "Payload size of the snapshot the last recovery loaded.")
		e.Gauge("powserved_recovery_snapshot_bytes", float64(rep.SnapshotBytes))
		e.Help("powserved_recovery_snapshot_seconds", "Read, decode and install time of that snapshot; recovery_seconds minus this is WAL open and replay.")
		e.Gauge("powserved_recovery_snapshot_seconds", rep.SnapshotLoad.Seconds())
		e.Help("powserved_recovery_snapshot_legacy", "1 when that snapshot was the all-JSON image written before the binary format.")
		e.Gauge("powserved_recovery_snapshot_legacy", float64(b2i(rep.SnapshotLegacy)))
		e.Gauge("powserved_recovery_records_replayed", float64(rep.RecordsReplayed))
		e.Gauge("powserved_recovery_samples_replayed", float64(rep.SamplesReplayed))
		e.Gauge("powserved_recovery_records_skipped", float64(rep.RecordsSkipped))
		e.Gauge("powserved_recovery_tombstoned", float64(rep.Tombstoned))
		e.Help("powserved_recovery_decode_errors", "CRC-valid WAL records the last recovery could not decode or the store refused: acknowledged data missing from the recovered state.")
		e.Gauge("powserved_recovery_decode_errors", float64(rep.DecodeErrors))
		e.Gauge("powserved_recovery_truncated_bytes", float64(rep.TruncatedBytes))
		e.Gauge("powserved_recovery_stale_lock", float64(b2i(rep.StaleLock)))
		e.Gauge("powserved_recovery_seconds", rep.Duration.Seconds())
	}
	if d.repl != nil {
		d.repl.collect(e)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// close stops the snapshot scheduler, takes a final snapshot when the
// queue has fully drained (fast restart), closes the WAL, and releases
// the data-dir lock. Called from Server.Close after the workers exit.
func (d *durability) close(s *Server) {
	// The pull loop and follower streams go first: both touch the WAL,
	// which is about to close.
	if d.repl != nil {
		d.repl.stopStreams()
		d.repl.stopFollower()
	}
	d.stopOnce.Do(func() { close(d.stopc) })
	d.wg.Wait()
	if d.log != nil {
		if d.recovered.Load() {
			if _, _, err := d.snapshotOnce(s); err != nil {
				d.snapshotErrors.Add(1)
			}
		}
		d.log.Close()
	}
	d.lock.Unlock()
}
