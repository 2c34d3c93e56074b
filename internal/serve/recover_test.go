package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/vfs"
	"hpcpower/internal/wal"
)

// segmentReads counts what a restart reads of the WAL — Opens of segment
// files and the bytes read through them — and calls onOpen, if set, with
// the running number of each Open before it happens.
type segmentReads struct {
	vfs.FS
	opens, bytes atomic.Int64
	onOpen       func(n int64)
}

func (c *segmentReads) Open(name string) (vfs.File, error) {
	if !strings.HasPrefix(filepath.Base(name), "wal-") {
		return c.FS.Open(name)
	}
	n := c.opens.Add(1)
	if c.onOpen != nil {
		c.onOpen(n)
	}
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countedFile{File: f, bytes: &c.bytes}, nil
}

type countedFile struct {
	vfs.File
	bytes *atomic.Int64
}

func (f *countedFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.bytes.Add(int64(n))
	return n, err
}

// replayFixture is a data directory whose restart takes every branch of
// replay, and the live server that tells what the restart must arrive at.
type replayFixture struct {
	dir     string
	want    string           // the control's state
	samples map[uint64]int64 // per replayed LSN, the samples its record adds
	total   int64            // the control's Ingested
}

// The fixture's snapshot covers LSNs 1–3 and, out of order, 5; it was
// taken by a follower that had pulled up to primary LSN 39.
const (
	fixtureSnapLSN  = 3
	fixtureExtraLSN = 5
	fixtureReplLSN  = 39
	fixturePLSN     = 41
)

// buildReplayFixture writes, by hand, a WAL in segments of segmentBytes
// (0 for one segment) and a snapshot beside it:
//
//	lsn 1–3  applied, inside the snapshot (at or below its LSN)
//	lsn 4    in flight when the snapshot was cut: replayed
//	lsn 5    applied ahead of 4, a boot extra of the snapshot
//	lsn 6    a record the queue refused, cancelled by the tombstone at 8
//	lsn 7    a follower's record, stamped with primary LSN 41
//	lsn 9    a CRC-valid body that will not decode
//	lsn 11   an unstamped record the store refuses (negative power)
//	others   a flatlining, traced job that fires an alert, and noise
//
// The control is a memory-only server that was sent, over HTTP, the
// batches of the applied records in the order the crashed server applied
// them: 1, 2, 3, 5, 4, 7, 10, 12, ….
func buildReplayFixture(t *testing.T, segmentBytes int64) *replayFixture {
	t.Helper()
	const agent, traceID = "replay", "trace-replay"
	flat := flatBatches(agent, 61, 2, 1_700_000_000, 45, 210)
	noise := stampedBatches(23, 8)
	seq := uint64(0)
	rec := func(b trace.SampleBatch, traceID string) trace.WALRecord {
		seq++
		return trace.WALRecord{Agent: agent, Seq: seq, Samples: b.Samples, Trace: traceID}
	}
	// records[i] is the record at LSN i+1; nil where the log holds
	// something else.
	records := []*trace.WALRecord{}
	add := func(r trace.WALRecord) { records = append(records, &r) }
	add(rec(flat[0], traceID)) // 1
	add(rec(noise[0], ""))     // 2
	add(rec(flat[1], traceID)) // 3
	add(rec(noise[1], ""))     // 4
	add(rec(flat[2], traceID)) // 5
	add(rec(noise[7], ""))     // 6
	followed := rec(flat[3], traceID)
	followed.PLSN = fixturePLSN
	add(followed)                  // 7
	records = append(records, nil) // 8: the tombstone
	records = append(records, nil) // 9: the undecodable body
	add(rec(flat[4], traceID))     // 10
	refused := []trace.PowerSample{{Node: 1, JobID: 2, Unix: 1_700_000_000, PowerW: -5}}
	add(trace.WALRecord{Samples: refused}) // 11
	for i := 5; i < len(flat); i++ {
		r := rec(flat[i], traceID)
		r.PLSN = uint64(30 + i) // all below fixturePLSN: the maximum wins, not the last
		add(r)
		if n := i - 3; n < 7 {
			add(rec(noise[n], ""))
		}
	}

	ctl, ts := anomalyNode.start(t)
	send := func(lsn uint64) {
		r := records[lsn-1]
		b := trace.SampleBatch{AgentID: r.Agent, Seq: r.Seq, Samples: r.Samples}
		if code := postTraced(t, ts.URL, r.Trace, b).StatusCode; code != http.StatusAccepted {
			t.Fatalf("control, lsn %d: status %d", lsn, code)
		}
	}
	for _, lsn := range []uint64{1, 2, 3, fixtureExtraLSN} {
		send(lsn)
	}
	img := &snapshotImage{
		Store: ctl.store.ExportState(), Dedup: ctl.dedup.ExportState(), Anomaly: ctl.anom.ExportState(),
		AppliedLSN: fixtureSnapLSN, Extras: []uint64{fixtureExtraLSN}, ReplLSN: fixtureReplLSN,
	}
	payload, err := encodeSnapshotImage(img)
	if err != nil {
		t.Fatal(err)
	}
	fx := &replayFixture{dir: t.TempDir(), samples: map[uint64]int64{}}
	for lsn := uint64(4); lsn <= uint64(len(records)); lsn++ {
		if lsn == fixtureExtraLSN || lsn == 6 || lsn == 11 || records[lsn-1] == nil {
			continue
		}
		send(lsn)
		fx.samples[lsn] = int64(len(records[lsn-1].Samples))
	}
	fx.want, fx.total = stateOf(ctl).String(), ctl.store.Ingested()
	if !strings.Contains(fx.want, `"type":"fire"`) || !strings.Contains(fx.want, traceID) {
		t.Fatalf("the control fired no traced alert:\n%s", fx.want)
	}

	log, err := wal.Open(fx.dir, wal.Options{Policy: wal.SyncNone, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range records {
		lsn := uint64(i + 1)
		var got uint64
		switch {
		case lsn == 8:
			got, err = log.AppendTombstone(6)
		case lsn == 9:
			got, err = log.Append([]byte(`{"agent":"replay","seq":900,"samples":[{"node":`))
		default:
			var body []byte
			if body, err = trace.AppendWALRecord(nil, r); err != nil {
				t.Fatal(err)
			}
			got, err = log.Append(body)
		}
		if err != nil || got != lsn {
			t.Fatalf("writing lsn %d: got lsn %d, err %v", lsn, got, err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteSnapshot(fx.dir, fixtureSnapLSN, payload); err != nil {
		t.Fatal(err)
	}
	return fx
}

// recoverFixture restarts a server on fx.dir through fsys and checks
// what replay arrived at and what it reported against the control. It
// answers the server's URL.
func recoverFixture(t *testing.T, fx *replayFixture, fsys vfs.FS) string {
	t.Helper()
	var logged bytes.Buffer
	s, ts := testNode{dir: fx.dir, quiet: true, dur: DurabilityConfig{FS: fsys}, anomaly: true,
		cfg: Config{Logger: slog.New(slog.NewTextHandler(&logged, nil))}}.start(t)
	rep := s.dur.report
	if warns := strings.Count(logged.String(), "level=WARN"); warns != 1 || !strings.Contains(logged.String(), "records=2") {
		t.Errorf("want one warning for the 2 dropped records, logged:\n%s", logged.String())
	}
	// The counters the sequential, three-pass replay reports for this
	// directory.
	got := [...]int64{rep.RecordsReplayed, rep.SamplesReplayed, rep.RecordsSkipped, rep.Tombstoned, rep.DecodeErrors, int64(rep.SnapshotLSN)}
	want := [...]int64{int64(len(fx.samples)), sum(fx.samples), 4, 1, 2, fixtureSnapLSN}
	if got != want || !rep.SnapshotFound {
		t.Errorf("replayed/samples/skipped/tombstoned/decode errors/snapshot lsn %v, want %v (snapshot found: %v)", got, want, rep.SnapshotFound)
	}
	if got := s.dur.repl.replApplied.Load(); got != fixturePLSN {
		t.Errorf("replApplied %d, want %d", got, fixturePLSN)
	}
	if got := s.store.Ingested(); got != fx.total {
		t.Errorf("recovered %d samples, the control holds %d", got, fx.total)
	}
	if got := stateOf(s).String(); got != fx.want {
		t.Errorf("recovered state differs from the live control\n got: %s\nwant: %s", got, fx.want)
	}
	return ts.URL
}

// TestReplayMatchesLiveControl: replay through the decode/apply pipeline
// reports what the sequential replay reported and leaves store, dedup
// index and alert engine byte-identical to a server that was simply sent
// the same batches — on a log of one segment and of many.
func TestReplayMatchesLiveControl(t *testing.T) {
	for _, segmentBytes := range []int64{0, 512} {
		t.Run(fmt.Sprintf("segment bytes %d", segmentBytes), func(t *testing.T) {
			fx := buildReplayFixture(t, segmentBytes)
			_, body := get(t, recoverFixture(t, fx, nil)+"/metrics")
			if !strings.Contains(string(body), "\npowserved_recovery_decode_errors 2\n") {
				t.Errorf("/metrics lacks powserved_recovery_decode_errors 2")
			}
		})
	}
}

// walSegments answers the data directory's WAL segment files, oldest
// first, and their total size.
func walSegments(t *testing.T, dir string) (segs []string, onDisk int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		st, err := vfs.OS.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += st.Size()
	}
	return segs, onDisk
}

// frameOffsets answers where each frame of a WAL segment starts, in LSN
// order: after the 16-byte header, each frame is its 4-byte body length,
// a 4-byte CRC, a type byte and the body.
func frameOffsets(t *testing.T, seg string) []int64 {
	t.Helper()
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for off := int64(16); off < int64(len(data)); off += 9 + int64(binary.LittleEndian.Uint32(data[off:])) {
		offs = append(offs, off)
	}
	return offs
}

// wideBatches are n batches of one agent, 64 nodes each, a minute apart:
// ≈ 3 KB records, so half a segment of them is many index strides long.
func wideBatches(n int) []trace.SampleBatch {
	out := make([]trace.SampleBatch, n)
	for b := range out {
		samples := make([]trace.PowerSample, 64)
		for i := range samples {
			samples[i] = trace.PowerSample{Node: i, JobID: uint64(i/16 + 1), Unix: 1_700_000_040 + int64(b)*60, PowerW: float64(1500+(b*7+i*13)%900) / 10}
		}
		out[b] = trace.SampleBatch{AgentID: "wide", Seq: uint64(b + 1), Samples: samples}
	}
	return out
}

// TestReplayStartsAtSnapshot: a restart reads no WAL record its snapshot
// covers. wal.Open reads every segment once; the byte count past that is
// replay's. Reads may start up to one index stride (4 KiB) before the
// first record asked for, and that is the slack allowed here.
func TestReplayStartsAtSnapshot(t *testing.T) {
	const slack = 4<<10 + 16 // the WAL's index stride and a segment header

	// The old fixture, in 512-byte segments: Open reads each once, replay
	// each that holds a record past the snapshot (lsn 4 on) once more,
	// and nothing reads a third time for the tombstones.
	t.Run("fixture", func(t *testing.T) {
		fx := buildReplayFixture(t, 512)
		segs, onDisk := walSegments(t, fx.dir)
		if len(segs) < 4 {
			t.Fatalf("%d segments, want at least 4", len(segs))
		}
		wantOpens, wantBytes := int64(len(segs)), onDisk
		for i, seg := range segs {
			if i+1 < len(segs) {
				var next uint64
				if _, err := fmt.Sscanf(filepath.Base(segs[i+1]), "wal-%d.seg", &next); err != nil {
					t.Fatal(err)
				}
				if next <= fixtureSnapLSN+1 {
					continue // ends at or below the snapshot
				}
			}
			st, err := vfs.OS.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			wantOpens++
			wantBytes += st.Size()
		}
		if wantOpens == 2*int64(len(segs)) {
			t.Fatalf("every segment holds a record past lsn %d: the fixture skips none", fixtureSnapLSN)
		}
		reads := &segmentReads{FS: vfs.OS}
		recoverFixture(t, fx, reads)
		if got := reads.opens.Load(); got != wantOpens {
			t.Errorf("%d opens of %d segment files, want %d", got, len(segs), wantOpens)
		}
		if got := reads.bytes.Load(); got != wantBytes {
			t.Errorf("read %d bytes of a %d-byte log, want %d", got, onDisk, wantBytes)
		}
	})

	// A clean shutdown: the final snapshot covers the whole log.
	t.Run("clean", func(t *testing.T) {
		dir := t.TempDir()
		s, ts := testNode{dir: dir, quiet: true}.start(t)
		n := sendAll(t, ts.URL, wideBatches(40))
		waitIngested(t, s, n)
		ts.Close()
		s.Close()
		segs, onDisk := walSegments(t, dir)
		reads := &segmentReads{FS: vfs.OS}
		s2, _ := testNode{dir: dir, quiet: true, dur: DurabilityConfig{FS: reads}}.start(t)
		rep := s2.dur.report
		if !rep.SnapshotFound || rep.SnapshotLSN != 40 || rep.RecordsReplayed != 0 || rep.RecordsSkipped != 40 || s2.store.Ingested() != n {
			t.Fatalf("report %+v, %d samples; want the snapshot at lsn 40, 40 records skipped, none replayed, %d samples", rep, s2.store.Ingested(), n)
		}
		if opens, read := reads.opens.Load(), reads.bytes.Load(); opens != int64(len(segs)) || read != onDisk {
			t.Errorf("%d opens and %d bytes read of %d segment(s), %d bytes: replay read %d bytes after wal.Open, want none",
				opens, read, len(segs), onDisk, read-onDisk)
		}
	})

	// A crash after a snapshot that covers half of the active segment:
	// replay seeks to the first record past it. So does a follower's read
	// from a record written before the restart.
	t.Run("half", func(t *testing.T) {
		dir := t.TempDir()
		batches := wideBatches(40)
		s, ts := testNode{dir: dir, quiet: true}.start(t)
		n := sendAll(t, ts.URL, batches[:20])
		waitIngested(t, s, n)
		if lsn, _, err := s.dur.snapshotOnce(s); err != nil || lsn != 20 {
			t.Fatalf("snapshot at lsn %d (%v), want 20", lsn, err)
		}
		n += sendAll(t, ts.URL, batches[20:])
		waitIngested(t, s, n)
		crash(t, s, ts)

		segs, onDisk := walSegments(t, dir)
		if len(segs) != 1 {
			t.Fatalf("%d segments, want the one active segment", len(segs))
		}
		offs := frameOffsets(t, segs[0])
		if len(offs) != 40 {
			t.Fatalf("%d frames, want 40", len(offs))
		}
		reads := &segmentReads{FS: vfs.OS}
		s2, _ := testNode{dir: dir, quiet: true, dur: DurabilityConfig{FS: reads}}.start(t)
		rep := s2.dur.report
		if rep.SnapshotLSN != 20 || rep.RecordsSkipped != 20 || rep.RecordsReplayed != 20 || s2.store.Ingested() != n {
			t.Fatalf("report %+v, %d samples; want 20 records skipped and 20 replayed past the snapshot at lsn 20, %d samples", rep, s2.store.Ingested(), n)
		}
		uncovered := onDisk - offs[20]
		if got := reads.bytes.Load() - onDisk; got < uncovered || got > uncovered+slack {
			t.Errorf("replay read %d bytes, want the %d bytes of lsns 21–40 and at most %d more", got, uncovered, slack)
		}
		// The restart's stages are each timed, and within its whole.
		if rep.SnapshotLoad <= 0 || rep.WALOpen <= 0 || rep.Replay <= 0 || rep.SnapshotLoad+rep.WALOpen+rep.Replay > rep.Duration {
			t.Errorf("snapshot load %v + wal open %v + replay %v, recovery %v: want each set and their sum within it",
				rep.SnapshotLoad, rep.WALOpen, rep.Replay, rep.Duration)
		}

		reads.bytes.Store(0)
		const from = 10 // written before the restart
		next := uint64(from)
		err := s2.dur.log.ReadRange(from, 40, func(lsn uint64, typ wal.RecordType, _ []byte) error {
			if lsn != next || typ != wal.RecordData {
				return fmt.Errorf("read lsn %d type %d, want lsn %d data", lsn, typ, next)
			}
			next++
			return nil
		})
		if err != nil || next != 41 {
			t.Fatalf("ReadRange(%d, 40) stopped before lsn %d: %v", from, next, err)
		}
		if want := onDisk - offs[from-1]; reads.bytes.Load() > want+slack {
			t.Errorf("ReadRange(%d, 40) read %d bytes, want the %d bytes of lsns %d–40 and at most %d more", from, reads.bytes.Load(), want, from, slack)
		}
	})
}

// shortLogDir leaves in dir what a node leaves that acked batches[:10]
// (LSNs 1–10), snapshotted at LSN 10 and crashed, after which one body
// byte of LSN 6 went bad: a log that ends at LSN 5, below its snapshot.
func shortLogDir(t *testing.T, dir string, batches []trace.SampleBatch) {
	t.Helper()
	s, ts := testNode{dir: dir, quiet: true}.start(t)
	waitIngested(t, s, sendAll(t, ts.URL, batches[:10]))
	if lsn, _, err := s.dur.snapshotOnce(s); err != nil || lsn != 10 {
		t.Fatalf("snapshot at lsn %d (%v), want 10", lsn, err)
	}
	crash(t, s, ts)
	segs, _ := walSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d segments, want one", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[frameOffsets(t, segs[0])[5]+9+2] ^= 0xff // a body byte of LSN 6
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShortLogKeepsAckedBatches: a restart over a log that ends below its
// snapshot names the LSNs only the snapshot holds, snapshots what it
// recovered and starts the log past the snapshot, so the batches it acks
// next survive a second crash. That second restart writes no snapshot.
func TestShortLogKeepsAckedBatches(t *testing.T) {
	dir := t.TempDir()
	batches := stampedBatches(6, 13)
	shortLogDir(t, dir, batches)

	var logged bytes.Buffer
	s, ts := testNode{dir: dir, quiet: true, cfg: Config{Logger: slog.New(slog.NewTextHandler(&logged, nil))}}.start(t)
	if warns := strings.Count(logged.String(), "level=WARN"); warns != 1 || !strings.Contains(logged.String(), "from=6 to=10") {
		t.Errorf("want one warning naming lsns 6–10, logged:\n%s", logged.String())
	}
	checkAckedOnce(t, s, batches, 10)
	if first, err := s.dur.log.FirstLSN(); err != nil || first != 11 || s.dur.log.LastLSN() != 10 {
		t.Errorf("the log holds lsns %d–%d (%v), want it started at 11", first, s.dur.log.LastLSN(), err)
	}
	sendAll(t, ts.URL, batches[10:])
	crash(t, s, ts)

	s2, _ := testNode{dir: dir, quiet: true}.start(t)
	checkAckedOnce(t, s2, batches, 13)
	if rep := s2.dur.report; rep.SnapshotLSN != 10 || rep.RecordsReplayed != 3 || s2.dur.snapshots.Load() != 0 {
		t.Errorf("report %+v and %d snapshots written; want the 3 records past the snapshot at lsn 10 replayed and none written",
			rep, s2.dur.snapshots.Load())
	}
}

// TestShortLogSnapshotsWhatReplayApplied: the fixture's snapshot covers
// LSNs 1–3 and 5; with LSN 5 gone bad the log ends at 4, which replay
// applies. The restart must put LSN 4 in a snapshot before the log starts
// past 5: a crash after it must come back to the same state, not refuse
// to start over LSN 4, which would then be in neither.
func TestShortLogSnapshotsWhatReplayApplied(t *testing.T) {
	fx := buildReplayFixture(t, 0)
	segs, _ := walSegments(t, fx.dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[frameOffsets(t, segs[0])[fixtureExtraLSN-1]+9+2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := testNode{dir: fx.dir, quiet: true, anomaly: true}.start(t)
	if rep := s.dur.report; rep.RecordsReplayed != 1 || s.dur.log.LastLSN() != fixtureExtraLSN {
		t.Fatalf("report %+v, log ends at lsn %d; want lsn 4 replayed and the log started past %d", rep, s.dur.log.LastLSN(), fixtureExtraLSN)
	}
	want := stateOf(s).String()
	crash(t, s, ts)
	s2, _ := testNode{dir: fx.dir, quiet: true, anomaly: true}.start(t)
	if got := stateOf(s2).String(); got != want {
		t.Errorf("a second restart arrived elsewhere\n got %s\nwant %s", got, want)
	}
}

// TestShortLogSendsFollowerToBootstrap: a follower that stopped at LSN 3
// resumes against a primary whose log ended below its snapshot at 10.
// Only the snapshot holds LSNs 6–10, so the primary answers 410
// bootstrap_required, and the follower installs the snapshot and matches
// the primary.
func TestShortLogSendsFollowerToBootstrap(t *testing.T) {
	dirP, dirF := t.TempDir(), t.TempDir()
	batches := stampedBatches(8, 13)
	p, tsP := testNode{dir: dirP, quiet: true}.start(t)
	f, tsF := testNode{dir: dirF, quiet: true, follow: tsP.URL}.start(t)
	n := sendAll(t, tsP.URL, batches[:3])
	waitIngested(t, f, n)
	crash(t, f, tsF)
	crash(t, p, tsP)
	// The primary goes on to LSN 10 and loses LSN 6 under its snapshot.
	shortLogDir(t, dirP, batches)

	p2, tsP2 := testNode{dir: dirP, quiet: true}.start(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, tsP2.URL+"/v1/repl/stream?follower=probe&from=4", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stream from lsn 4: %d, want 410", resp.StatusCode)
	}
	if body, _ := io.ReadAll(resp.Body); !strings.Contains(string(body), CodeBootstrapRequired) {
		t.Fatalf("stream from lsn 4: 410 %q, want code %s", body, CodeBootstrapRequired)
	}

	f2, _ := testNode{dir: dirF, quiet: true, follow: tsP2.URL}.start(t)
	sendAll(t, tsP2.URL, batches[10:])
	waitFor(t, "the follower to apply lsn 13", func() bool { return f2.dur.repl.replApplied.Load() == 13 })
	if got := f2.dur.repl.followerStats().SnapshotInstalls; got != 1 {
		t.Errorf("%d snapshot installs, want 1", got)
	}
	checkFollowerMatches(t, p2, f2)
	checkAckedOnce(t, f2, batches, 13)
}

// TestReplayReadErrorJoinsConsumer: reads start failing with EIO during
// the replay pass while the consumer is held inside its first record, the
// records decoded behind it waiting in the channel. Recover must not
// return before the consumer has applied them and exited; then it reports
// the error. Once the disk reads again, a fresh server recovers the
// directory completely.
func TestReplayReadErrorJoinsConsumer(t *testing.T) {
	fx := buildReplayFixture(t, 512)
	segs, err := filepath.Glob(filepath.Join(fx.dir, "wal-*.seg"))
	if err != nil || len(segs) < 4 {
		t.Fatalf("%d segments (%v), want at least 4", len(segs), err)
	}
	// The consumer is held on lsn 4, so the decoder gets as far as its
	// replayBuffers records reach — lsn 11 — and the segment that fails
	// must start no later than that. Replay opens the segments from the
	// one holding lsn 4, the first past the snapshot, on.
	replayFirst, failing, failingFirst := 0, 0, uint64(0)
	for i, seg := range segs {
		var first uint64
		if _, err := fmt.Sscanf(filepath.Base(seg), "wal-%d.seg", &first); err != nil {
			t.Fatal(err)
		}
		if first <= 4 {
			replayFirst = i
		}
		if first > 4 && first <= 11 {
			failing, failingFirst = i, first
		}
	}
	if failing == 0 {
		t.Fatalf("no segment starts between lsn 5 and 11: %v", segs)
	}
	// The open scan opens every segment once; the replay pass arms the
	// hold with its first Open, and its Open of the failing segment is
	// the first thing to see the fault.
	var hold atomic.Bool
	held, release := make(chan struct{}, 1), make(chan struct{})
	ffs := vfs.NewFault(vfs.OS, vfs.FaultConfig{})
	reads := &segmentReads{FS: ffs, onOpen: func(n int64) {
		switch n {
		case int64(len(segs) + 1):
			hold.Store(true)
		case int64(len(segs) + failing - replayFirst + 1):
			ffs.Configure(func(c *vfs.FaultConfig) { c.ReadErrProb = 1 })
		}
	}}
	store := durableStore()
	cfg := Config{IngestWorkers: 1}
	cfg.Anomaly = anomaly.NewEngine(anomaly.Config{Lookup: func(job uint64) (anomaly.Fingerprint, bool) {
		if hold.Load() {
			select {
			case held <- struct{}{}:
			default:
			}
			<-release
		}
		return store.JobFingerprint(job)
	}})
	s, err := NewDurable(store, nil, cfg, DurabilityConfig{Dir: fx.dir, FS: reads})
	if err != nil {
		t.Fatal(err)
	}
	recovered := make(chan error, 1)
	go func() {
		_, err := s.Recover()
		recovered <- err
	}()
	<-held
	waitFor(t, "the replay pass to hit the read error", func() bool { return ffs.Stats().ReadErrors > 0 })
	select {
	case err := <-recovered:
		t.Fatalf("Recover returned (%v) while the replay consumer was still applying", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	err = <-recovered
	ingested := s.store.Ingested()
	if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "wal replay") {
		t.Fatalf("Recover: %v, want the replay's EIO", err)
	}
	// Everything decoded before the error was applied, nothing else.
	var want int64
	for lsn, n := range fx.samples {
		if lsn < failingFirst {
			want += n
		}
	}
	inSnapshot := fx.total - sum(fx.samples)
	if replayed := ingested - inSnapshot; replayed != want {
		t.Errorf("%d samples replayed when Recover returned, want the %d of the records before lsn %d", replayed, want, failingFirst)
	}
	s.Close()

	ffs.Configure(func(c *vfs.FaultConfig) { c.ReadErrProb = 0 })
	reads.onOpen = nil
	recoverFixture(t, fx, reads)
}

func sum(m map[uint64]int64) (total int64) {
	for _, n := range m {
		total += n
	}
	return total
}

// writeCrashImage fills dir with what a crash leaves of the end-to-end
// benchmark's recover-crash run: no snapshot and a WAL of 1,000 records
// × 512 samples. It returns the records' total size.
func writeCrashImage(tb testing.TB, dir string) (records int, logBytes int64) {
	return 1000, writeFleetWAL(tb, dir, 1000, 0)
}

// writeFleetWAL writes records ≈ 24 KB records of 512 samples into one
// WAL segment in dir — two agents of 512 nodes each, one record per agent
// and minute from minute tick0 on, jobs on runs of 16 nodes — and
// returns their total size.
func writeFleetWAL(tb testing.TB, dir string, records int, tick0 int64) (logBytes int64) {
	tb.Helper()
	const agentNodes = 512
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		tb.Fatal(err)
	}
	src := rng.New(42)
	level := make([]float64, 2*agentNodes)
	for n := range level {
		level[n] = 90 + 170*src.Float64()
	}
	samples := make([]trace.PowerSample, agentNodes)
	var body []byte
	for r := 0; r < records; r++ {
		agent, tick := r%2, tick0+int64(r/2)
		for i := range samples {
			n := agent*agentNodes + i
			w := math.Round(level[n]*(1+0.05*src.Norm())*10) / 10
			samples[i] = trace.PowerSample{Node: n, JobID: uint64(n/16 + 1), Unix: 1_700_000_040 + tick*60, PowerW: math.Max(w, 0)}
		}
		rec := trace.WALRecord{Agent: fmt.Sprintf("agent-%d", agent), Seq: uint64(tick + 1), Samples: samples}
		if body, err = trace.AppendWALRecord(body[:0], &rec); err != nil {
			tb.Fatal(err)
		}
		if _, err := log.Append(body); err != nil {
			tb.Fatal(err)
		}
		logBytes += int64(len(body))
	}
	if err := log.Close(); err != nil {
		tb.Fatal(err)
	}
	return logBytes
}

// BenchmarkRecoverCrash is a whole restart after a crash with no snapshot
// — NewDurable + Recover over writeCrashImage's WAL, the alert engine on.
// Bytes are the log's; run it with -cpu 1,2 to see what the second core
// buys and that the hand-off costs nothing without one.
func BenchmarkRecoverCrash(b *testing.B) {
	dir := b.TempDir()
	records, logBytes := writeCrashImage(b, dir)
	b.SetBytes(logBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := tsdb.New(tsdb.DefaultConfig())
		cfg := DefaultConfig()
		cfg.Anomaly = anomaly.NewEngine(anomaly.Config{Lookup: store.JobFingerprint})
		s, err := NewDurable(store, nil, cfg, DurabilityConfig{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Recover()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if rep.RecordsReplayed != int64(records) || rep.DecodeErrors != 0 {
			b.Fatalf("replayed %d records with %d decode errors, want %d and 0", rep.RecordsReplayed, rep.DecodeErrors, records)
		}
		crash(b, s, httptest.NewServer(s.Handler()))
		b.StartTimer()
	}
}
