package serve

// The crash-point enumerator: a seeded, single-worker, wal.SyncBatch
// workload runs over a disk that logs every mutating operation, and every
// crash point of that log, in three models (see checkCrashInvariants), is
// restarted the way powserved starts an elected node; then every read of
// the restart of the final directory is failed in turn. A case is a
// subtest, e.g.
//
//	go test -run 'TestCrashPoints/op031-torn0-synced' ./internal/serve/

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hpcpower/internal/block"
	"hpcpower/internal/elect"
	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
	"hpcpower/internal/vfs"
)

const (
	crashSeed         = 7
	crashWindow       = 600           // block window, seconds
	crashT0           = 1_700_000_400 // the start of a block window
	crashSegmentBytes = 256           // two or three records a segment
)

// fsOp is one mutating operation, its paths relative to the disk's root:
// create, write (data at off), truncate (to off), sync, rename (to to),
// remove or syncdir.
type fsOp struct {
	kind, path, to string
	off            int64
	data           []byte
}

// recordFS is the disk under root with every mutating operation logged in
// order and every read counted; the failRead-th (from 1) fails with EIO,
// or with fault "short" returns half its bytes and reports the end of the
// file. Syncs are logged, not performed: dirImage decides what a crash
// keeps. The disk probe is not logged: it runs on a goroutine of its own
// and nothing reads its file.
type recordFS struct {
	vfs.FS
	root string

	mu       sync.Mutex
	ops      []fsOp
	reads    int
	failRead int
	fault    string
}

// tempName is the process id and counter vfs.CreateTemp puts in a temp
// file's name. The log leaves them out, so two recordings compare equal;
// no workload here holds two temp files for one target at once.
var tempName = regexp.MustCompile(`\.\d+-\d+\.tmp$`)

// lockLine stands in the log for the process id wal.LockDirFS writes to
// data/LOCK, which only a contender's error message reads: a torn case is
// named by the write's length, so the names do not vary with the pid.
const lockLine = "10000\n"

func (r *recordFS) log(op fsOp) {
	if strings.HasSuffix(op.path, ".disk-probe") {
		return
	}
	rel := func(name string) string {
		if name == "" {
			return ""
		}
		p, _ := filepath.Rel(r.root, name) // every name is under root
		return tempName.ReplaceAllString(p, ".tmp")
	}
	op.path, op.to, op.data = rel(op.path), rel(op.to), slices.Clone(op.data)
	if op.kind == "write" && op.path == filepath.Join("data", "LOCK") {
		op.data = []byte(lockLine)
	}
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// take returns the log and empties it.
func (r *recordFS) take() []fsOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := r.ops
	r.ops = nil
	return ops
}

func (r *recordFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	_, statErr := r.FS.Stat(name)
	f, err := r.FS.OpenFile(name, flag, perm)
	switch {
	case err != nil:
		return nil, err
	case flag&os.O_CREATE != 0 && os.IsNotExist(statErr):
		r.log(fsOp{kind: "create", path: name})
	case flag&os.O_TRUNC != 0:
		r.log(fsOp{kind: "truncate", path: name})
	}
	return &recordFile{File: f, fs: r}, nil
}

func (r *recordFS) Open(name string) (vfs.File, error) {
	f, err := r.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &recordFile{File: f, fs: r}, nil
}

// done logs op if err is nil and returns err.
func (r *recordFS) done(op fsOp, err error) error {
	if err == nil {
		r.log(op)
	}
	return err
}

func (r *recordFS) Rename(from, to string) error {
	return r.done(fsOp{kind: "rename", path: from, to: to}, r.FS.Rename(from, to))
}

func (r *recordFS) Remove(name string) error {
	return r.done(fsOp{kind: "remove", path: name}, r.FS.Remove(name))
}

func (r *recordFS) Truncate(name string, size int64) error {
	return r.done(fsOp{kind: "truncate", path: name, off: size}, r.FS.Truncate(name, size))
}

func (r *recordFS) SyncDir(dir string) error { return r.done(fsOp{kind: "syncdir", path: dir}, nil) }

type recordFile struct {
	vfs.File
	fs *recordFS
}

func (f *recordFile) Write(p []byte) (int, error) {
	off, err := f.File.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	n, err := f.File.Write(p)
	return n, f.wrote(p[:n], off, err)
}

func (f *recordFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	return n, f.wrote(p[:n], off, err)
}

// wrote logs the bytes a write landed at off and returns its error.
func (f *recordFile) wrote(p []byte, off int64, err error) error {
	if len(p) > 0 {
		f.fs.log(fsOp{kind: "write", path: f.Name(), off: off, data: p})
	}
	return err
}

func (f *recordFile) Truncate(size int64) error {
	return f.fs.done(fsOp{kind: "truncate", path: f.Name(), off: size}, f.File.Truncate(size))
}

func (f *recordFile) Sync() error { return f.fs.done(fsOp{kind: "sync", path: f.Name()}, nil) }

func (f *recordFile) Read(p []byte) (int, error) {
	return f.faulted(func() (int, error) { return f.File.Read(p) })
}

func (f *recordFile) ReadAt(p []byte, off int64) (int, error) {
	return f.faulted(func() (int, error) { return f.File.ReadAt(p, off) })
}

// faulted counts a read and does it, or the fault it gets.
func (f *recordFile) faulted(read func() (int, error)) (int, error) {
	f.fs.mu.Lock()
	f.fs.reads++
	failed := f.fs.reads == f.fs.failRead
	f.fs.mu.Unlock()
	if failed && f.fs.fault == "eio" {
		return 0, &fs.PathError{Op: "read", Path: f.Name(), Err: syscall.EIO}
	}
	n, err := read()
	if failed && f.fs.fault == "short" {
		return n / 2, io.EOF
	}
	return n, err
}

// dirImage is what logged operations leave under a root: per file, the
// bytes written and the bytes its last fsync made durable.
type dirImage map[string]*fileImage

type fileImage struct{ data, synced []byte }

func (img dirImage) apply(op fsOp) {
	f := img[op.path]
	switch op.kind {
	case "create":
		img[op.path] = &fileImage{}
	case "write":
		if grow := op.off + int64(len(op.data)) - int64(len(f.data)); grow > 0 {
			f.data = append(f.data, make([]byte, grow)...)
		}
		copy(f.data[op.off:], op.data)
	case "truncate": // only ever to a shorter length here
		f.data = f.data[:op.off]
	case "sync":
		f.synced = slices.Clone(f.data)
	case "rename":
		img[op.to] = f
		delete(img, op.path)
	case "remove":
		delete(img, op.path)
	}
}

// crashImage is what a crash leaves after ops[:k]: every file as written,
// or with synced as its last fsync left it; torn > 0 lands that many bytes
// of the write ops[k] as well.
func crashImage(ops []fsOp, k, torn int, synced bool) dirImage {
	img := dirImage{}
	for _, op := range ops[:k] {
		img.apply(op)
	}
	if torn > 0 {
		op := ops[k]
		op.data = op.data[:torn]
		img.apply(op)
	}
	if synced {
		for _, f := range img {
			f.data = f.synced
		}
	}
	return img
}

// disk writes img under a new root holding the data and block dirs and
// returns its recording disk.
func (img dirImage) disk(t testing.TB) *recordFS {
	t.Helper()
	root := t.TempDir()
	for _, d := range []string{"data", "blocks"} {
		if err := os.Mkdir(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, f := range img {
		if err := os.WriteFile(filepath.Join(root, name), f.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return &recordFS{FS: vfs.OS, root: root}
}

// frozenClock is an election clock that moves only when told to.
type frozenClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *frozenClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *frozenClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// restart starts a node on fsys as powserved does with -blocks-dir,
// -data-dir and -peer, background loops quiet, in a group of itself: its
// elector is attached before recovery and ticked by hand on a frozen
// clock. It returns the role the node booted as, from its epoch record,
// and then wins the election — at once if it booted leading, by
// campaigning for the next epoch if it booted a follower — so that it
// takes writes. An error is a refusal to start.
func restart(t testing.TB, fsys *recordFS) (*Server, string, error) {
	bs, err := block.Open(block.Config{Dir: filepath.Join(fsys.root, "blocks"), WindowSeconds: crashWindow, FS: fsys})
	if err != nil {
		return nil, "", err
	}
	store := durableStore()
	store.AttachBlocks(bs)
	dcfg := quietDurability(filepath.Join(fsys.root, "data"))
	dcfg.FS, dcfg.SegmentBytes = fsys, crashSegmentBytes
	s, err := NewDurable(store, nil, durableConfig(), dcfg)
	if err != nil {
		return nil, "", err
	}
	st, err := elect.OpenStateFile(vfs.OS, filepath.Join(t.TempDir(), "ELECT"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // no Run loop: the ticks below are the only ones
	clock := &frozenClock{now: time.Unix(crashT0, 0)}
	el, err := s.StartElection(ctx, elect.Config{ID: "crash", URL: "http://crash", State: st,
		Clock: clock, Transport: &elect.HTTPTransport{}, Rand: func() float64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(); err != nil {
		el.Close()
		s.Close()
		return nil, "", err
	}
	booted := el.Status().Role
	if rs := s.dur.repl; rs.isFollower.Load() != (booted == "follower") {
		t.Fatalf("the data plane booted follower %v, the elector %s", rs.isFollower.Load(), booted)
	}
	clock.advance(time.Hour)
	el.Tick(ctx)
	if !el.HasLease() {
		t.Fatalf("a group of one did not elect its node: %+v", el.Status())
	}
	return s, booted, nil
}

// crashState is everything a restart arrives at: store, dedup index and
// block catalog.
func crashState(t testing.TB, s *Server) string {
	t.Helper()
	out, err := json.Marshal([]any{s.store.ExportState(), s.dedup.ExportState(), s.store.Blocks().Stats()})
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// crashRecording is one run of the workload: its batches (one agent; each
// its own job on nodes of its own, so a job's sample count says whether its
// batch is present, and once), what it did to the disk, and what a crash at
// each point of that may lose.
type crashRecording struct {
	batches []trace.SampleBatch
	ops     []fsOp
	// ackedAt[i] is how many operations were logged when batch i's 202
	// came back; -1 if it never did.
	ackedAt []int
	// After sealedAt operations, a block publish had raised the frontier
	// to sealedTo.
	sealedAt int
	sealedTo int64
	// ops[promotedAt] is the rename that publishes the EPOCH record of
	// the promotion the first boot's election win made.
	promotedAt int
	// control is the never-crashed node's analyticsDump once every batch
	// was re-sent.
	control string
}

func (rec *crashRecording) acked(batch, crashAt int) bool {
	return rec.ackedAt[batch] >= 0 && rec.ackedAt[batch] <= crashAt
}

// recordCrashWorkload boots an empty node, which wins its first election
// and so writes its promotion to EPOCH, ingests four batches (the WAL
// rotates), snapshots (a segment is reaped), ingests two more, seals and
// compacts the block window of all six, ingests one more, and has the last
// refused with the queue full, so cancel tombstones its record.
func recordCrashWorkload(t *testing.T) *crashRecording {
	rec := &crashRecording{batches: make([]trace.SampleBatch, 8), ackedAt: make([]int, 8)}
	src := rng.New(crashSeed)
	for i := range rec.batches {
		rec.batches[i] = trace.SampleBatch{AgentID: "crash", Seq: uint64(i + 1)}
		for n := 0; n <= int(src.Uint64()%3); n++ {
			rec.batches[i].Samples = append(rec.batches[i].Samples, trace.PowerSample{
				Node: 3*i + n, JobID: uint64(i + 1), Unix: crashT0 + 100*int64(i),
				PowerW: math.Round(1000+3000*src.Float64()) / 10,
			})
		}
	}
	fsys := dirImage{}.disk(t)
	s, _, err := restart(t, fsys)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer crash(t, s, ts)
	logged := func() int {
		rec.ops = append(rec.ops, fsys.take()...)
		return len(rec.ops)
	}
	send := func(i int) {
		if resp, body := postJSON(t, ts.URL+"/v1/samples", rec.batches[i]); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch %d: %d %s", i+1, resp.StatusCode, body)
		}
		rec.ackedAt[i] = logged()
	}
	for i := 0; i < 4; i++ {
		send(i)
	}
	if _, _, err := s.dur.snapshotOnce(s); err != nil {
		t.Fatal(err)
	}
	send(4)
	send(5)
	if _, err := s.store.FlushBlocks(crashT0 + crashWindow); err != nil {
		t.Fatal(err)
	}
	rec.sealedAt, rec.sealedTo = logged(), s.store.Blocks().Frontier()
	if _, err := s.store.Blocks().CompactPending(); err != nil {
		t.Fatal(err)
	}
	send(6)
	whileQueueFull(t, s, func() {
		if resp, body := postJSON(t, ts.URL+"/v1/samples", rec.batches[7]); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("batch 8 with the queue full: %d %s", resp.StatusCode, body)
		}
	})
	logged()
	rec.ackedAt[7] = -1
	if !slices.ContainsFunc(rec.ops, func(op fsOp) bool { return op.kind == "remove" && strings.HasPrefix(op.path, "data/wal-") }) {
		t.Fatal("the snapshot reaped no WAL segment")
	}
	rec.promotedAt = slices.IndexFunc(rec.ops, func(op fsOp) bool {
		return op.kind == "rename" && op.to == filepath.Join("data", epochFileName)
	})
	if rec.promotedAt < 0 {
		t.Fatal("the promotion wrote no EPOCH record")
	}

	for i, b := range rec.batches {
		b.Redelivery = i != 7
		if resp, body := postJSON(t, ts.URL+"/v1/samples", b); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("re-sending batch %d: %d %s", i+1, resp.StatusCode, body)
		}
	}
	rec.control = analyticsDump(t, ts.URL)
	return rec
}

// checkCrashInvariants restarts what a crash after ops[:k] leaves: applied
// (each operation took effect whole: a killed process), torn (plus torn
// bytes of the write ops[k]) or synced (each file cut back to its last
// completed fsync: power loss; names stay as they stood). It checks that
//
//   - every batch acked before the crash is present, once;
//   - no batch is half-applied;
//   - the block frontier is not below the last completed publish's;
//   - the store holds what a fresh one fed the present batches in order
//     holds;
//   - a torn write to the WAL is truncated away;
//   - a second crash after each of recovery's own operations, and a second
//     restart, arrive at the same state;
//   - once every batch is re-sent, acked ones as redeliveries, the
//     analytics are the never-crashed node's.
func (rec *crashRecording) checkCrashInvariants(t *testing.T, k, torn int, synced bool) {
	fsys := crashImage(rec.ops, k, torn, synced).disk(t)
	s, booted, err := restart(t, fsys)
	if err != nil {
		t.Fatalf("restart refused: %v", err)
	}
	// The boot role comes from the epoch record: a follower until the
	// promotion's rename lands, from then on the leader of the epoch
	// it won, advertising its own WAL's frontier.
	if want := map[bool]string{false: "follower", true: "leader"}[k > rec.promotedAt]; booted != want {
		t.Errorf("booted as %s, want %s", booted, want)
	}
	if booted == "leader" {
		if st, local := s.elector.Load().Status(), s.dur.tracker.Load().frontierLSN(); st.FrontierEpoch != s.dur.repl.epoch.Epoch() || st.FrontierLSN != local {
			t.Errorf("booted leading epoch %d and advertising %d/%d, not its own WAL's frontier %d", s.dur.repl.epoch.Epoch(), st.FrontierEpoch, st.FrontierLSN, local)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer crash(t, s, ts)
	own, state := fsys.take(), crashState(t, s)

	fresh := durableStore()
	for i, b := range rec.batches {
		js, _ := s.store.JobPower(uint64(i + 1))
		switch n := int64(len(b.Samples)); {
		case js.Samples == n:
			if err := fresh.Append(b.Samples); err != nil {
				t.Fatal(err)
			}
		case rec.acked(i, k):
			t.Errorf("batch %d was acked and holds %d of its %d samples", i+1, js.Samples, n)
		case js.Samples != 0:
			t.Errorf("unacked batch %d holds %d samples, want 0 or %d", i+1, js.Samples, n)
		}
	}
	got, want := s.store.ExportState(), fresh.ExportState()
	got.BlockFrontier = 0 // a store fed by hand has sealed nothing
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the store differs from one fed the present batches\n got %+v\nwant %+v", got, want)
	}
	if f := s.store.BlockFrontier(); k >= rec.sealedAt && f < rec.sealedTo {
		t.Errorf("block frontier %d, below the %d a completed publish raised it to", f, rec.sealedTo)
	}
	if torn > 0 && strings.HasPrefix(rec.ops[k].path, "data/wal-") && s.dur.report.TruncatedBytes == 0 {
		t.Errorf("the torn write to %s was not truncated", rec.ops[k].path)
	}

	for j := 1; j < len(own); j++ {
		img := crashImage(rec.ops, k, torn, synced)
		for _, op := range own[:j] {
			img.apply(op)
		}
		s2, _, err := restart(t, img.disk(t))
		if err != nil {
			t.Fatalf("crashed again after recovery's %+v: restart refused: %v", own[j-1], err)
		}
		if again := crashState(t, s2); again != state {
			t.Errorf("crashed again after recovery's %+v: the second restart arrived elsewhere\n got %s\nwant %s", own[j-1], again, state)
		}
		crash(t, s2, nil)
	}

	for i, b := range rec.batches {
		b.Redelivery = rec.acked(i, k)
		if resp, body := postJSON(t, ts.URL+"/v1/samples", b); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("re-sending batch %d: %d %s", i+1, resp.StatusCode, body)
		}
	}
	if got := analyticsDump(t, ts.URL); got != rec.control {
		t.Errorf("after the re-send the analytics differ from the never-crashed node's\n got %s\nwant %s", got, rec.control)
	}
}

// refusedReads are read faults that once started a node on less than its
// disk held, and must refuse to start: block.Open skipped the raw block it
// could not read (7); a snapshot read that ended early passed for a corrupt
// snapshot, with the WAL below it reaped (12); the open scan (14) and
// replay (20) took one for a torn tail, and a segment's for its end on a
// frame boundary, dropping the tombstone after it (18).
var refusedReads = []string{"read007-eio", "read012-short", "read014-short", "read018-short", "read020-short"}

// TestCrashPoints runs every crash case of the workload, then fails every
// read of the restart of its final directory, with EIO or by ending it
// early: the restart must refuse to start or arrive at the full state.
func TestCrashPoints(t *testing.T) {
	rec := recordCrashWorkload(t)
	if again := recordCrashWorkload(t); !reflect.DeepEqual(again, rec) {
		t.Fatal("two recordings of the workload differ")
	}
	run := func(k, cut int, synced bool) {
		model := map[bool]string{false: "applied", true: "synced"}[synced]
		t.Run(fmt.Sprintf("op%03d-torn%d-%s", k, cut, model), func(t *testing.T) { rec.checkCrashInvariants(t, k, cut, synced) })
	}
	for k := 0; k <= len(rec.ops); k++ {
		run(k, 0, false)
		run(k, 0, true)
		if k == len(rec.ops) || rec.ops[k].kind != "write" {
			continue
		}
		n := len(rec.ops[k].data)
		for _, cut := range slices.Compact([]int{1, n / 2, n - 1}) {
			if cut > 0 && cut < n {
				run(k, cut, false)
			}
		}
	}

	final := crashImage(rec.ops, len(rec.ops), 0, false)
	fsys := final.disk(t)
	s, _, err := restart(t, fsys)
	if err != nil {
		t.Fatal(err)
	}
	full := crashState(t, s)
	crash(t, s, nil)
	if fsys.reads < 20 {
		t.Fatalf("the restart made %d reads; refusedReads names the 20th", fsys.reads)
	}
	for r := 1; r <= fsys.reads; r++ {
		for _, fault := range []string{"eio", "short"} {
			name := fmt.Sprintf("read%03d-%s", r, fault)
			t.Run(name, func(t *testing.T) {
				fsys := final.disk(t)
				fsys.failRead, fsys.fault = r, fault
				s, _, err := restart(t, fsys)
				if err != nil {
					return // refused to start
				}
				defer crash(t, s, nil)
				if slices.Contains(refusedReads, name) {
					t.Error("started; it must refuse")
				}
				if got := crashState(t, s); got != full {
					t.Errorf("started with less than the full state\n got %s\nwant %s", got, full)
				}
			})
		}
	}

	// The newest snapshot of the final directory goes bad after its reap
	// removed the WAL segments below it: no file holds those records any
	// more, so the restart must refuse, naming the gap.
	t.Run("snapshot-corrupt", func(t *testing.T) {
		img := crashImage(rec.ops, len(rec.ops), 0, false)
		newest := ""
		for name := range img {
			if strings.HasPrefix(name, "data/snap-") && strings.HasSuffix(name, ".snap") && name > newest {
				newest = name
			}
		}
		if newest == "" {
			t.Fatal("the workload left no snapshot")
		}
		snap := img[newest]
		snap.data = slices.Clone(snap.data)
		snap.data[len(snap.data)/2] ^= 0xff
		s, _, err := restart(t, img.disk(t))
		if err == nil {
			crash(t, s, nil)
			t.Fatal("started; it must refuse")
		}
		if !strings.Contains(err.Error(), "lsn") {
			t.Errorf("refused with %q, which does not name the missing lsns", err)
		}
	})
}
