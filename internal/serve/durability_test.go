package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/wal"
)

// durableStore is the store shape of a testNode, for a test that builds
// its server by hand.
func durableStore() *tsdb.Store {
	return tsdb.New(tsdb.Config{Shards: 4, RingLen: 256})
}

// crash simulates a SIGKILL: no drain, no final snapshot — just drop
// the background machinery and abandon (not cleanly unlock) the dir
// lock, leaving disk exactly as a dead process would. An attached
// elector stops too: a dead node neither heartbeats nor votes. ts may
// be nil.
func crash(t testing.TB, s *Server, ts *httptest.Server) {
	t.Helper()
	if ts != nil {
		ts.Close()
	}
	if el := s.elector.Load(); el != nil {
		el.Close()
	}
	s.ingestQ.Close(true)
	d := s.dur
	d.repl.stopStreams()
	d.repl.stopFollower()
	d.stopOnce.Do(func() { close(d.stopc) })
	d.wg.Wait()
	if d.log != nil {
		d.log.Close()
	}
	d.lock.Abandon()
}

// analyticsDump serializes summary + every job body — the byte-identity
// oracle of a recovered server against a never-crashed one.
func analyticsDump(t testing.TB, url string) string {
	t.Helper()
	var b strings.Builder
	resp, body := get(t, url+"/v1/summary")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: %d %s", resp.StatusCode, body)
	}
	b.Write(body)
	resp, body = get(t, url+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs: %d %s", resp.StatusCode, body)
	}
	b.Write(body)
	var jobs struct {
		Jobs []uint64 `json:"jobs"`
	}
	if err := json.Unmarshal(body, &jobs); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	for _, id := range jobs.Jobs {
		resp, body = get(t, url+"/v1/jobs/"+strconv.FormatUint(id, 10)+"/power")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: %d %s", id, resp.StatusCode, body)
		}
		b.Write(body)
	}
	return b.String()
}

func stampedBatches(seed uint64, n int) []trace.SampleBatch {
	src := rng.New(seed)
	out := make([]trace.SampleBatch, n)
	for b := range out {
		k := int(src.Uint64()%5) + 1
		samples := make([]trace.PowerSample, k)
		for i := range samples {
			samples[i] = trace.PowerSample{
				Node:   int(src.Uint64() % 8),
				JobID:  1 + src.Uint64()%3,
				Unix:   1_700_000_000 + int64(src.Uint64()%1800),
				PowerW: 100 + 300*src.Float64(),
			}
		}
		out[b] = trace.SampleBatch{AgentID: "a1", Seq: uint64(b + 1), Samples: samples}
	}
	return out
}

// sendAll posts batches in order, with the header pairs given, and
// answers the samples they hold.
func sendAll(t testing.TB, url string, batches []trace.SampleBatch, header ...string) int64 {
	t.Helper()
	var samples int64
	for _, b := range batches {
		resp, body := postJSON(t, url+"/v1/samples", b, header...)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seq %d: %d %s", b.Seq, resp.StatusCode, body)
		}
		samples += int64(len(b.Samples))
	}
	return samples
}

// TestRecoverAcrossSnapshots: a graceful restart recovers from the final
// snapshot with nothing to replay (and sweeps a dead instance's temp
// files); a crash after more traffic replays only the WAL tail past it.
func TestRecoverAcrossSnapshots(t *testing.T) {
	dir := t.TempDir()
	batches := stampedBatches(9, 30)

	s1, ts1 := testNode{dir: dir}.start(t)
	var n1 int64
	for _, b := range batches[:20] {
		postJSON(t, ts1.URL+"/v1/samples", b)
		n1 += int64(len(b.Samples))
	}
	waitIngested(t, s1, n1)
	s1.Close() // graceful: takes a final snapshot

	// What an instance killed mid-publish leaves: a half-written snapshot
	// ahead of the real one and an epoch bump. Opening the dir sweeps
	// both, and recovery reads what it would have read without them.
	litter := []string{"snap-00000000000000009999.snap.4242-7.tmp", "EPOCH.4242-8.tmp"}
	for _, name := range litter {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("PWRSNP1\ntorn"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := NewDurable(durableStore(), nil, DefaultConfig(), DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range litter {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s survived the open: %v", name, err)
		}
	}
	rep, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotFound {
		t.Fatal("graceful shutdown left no snapshot")
	}
	if rep.RecordsReplayed != 0 {
		t.Fatalf("replayed %d records after a clean shutdown snapshot", rep.RecordsReplayed)
	}
	if got := s2.store.Ingested(); got != n1 {
		t.Fatalf("snapshot restored %d samples, want %d", got, n1)
	}
	ts2 := httptest.NewServer(s2.Handler())
	var n2 int64
	for _, b := range batches[20:] {
		postJSON(t, ts2.URL+"/v1/samples", b)
		n2 += int64(len(b.Samples))
	}
	waitIngested(t, s2, n1+n2)
	crash(t, s2, ts2)

	s3, _ := testNode{dir: dir}.start(t)
	if rep := s3.dur.report; rep.RecordsReplayed != int64(len(batches)-20) {
		t.Fatalf("replayed %d records, want %d", rep.RecordsReplayed, len(batches)-20)
	}
	if got := s3.store.Ingested(); got != n1+n2 {
		t.Fatalf("recovered %d samples, want %d", got, n1+n2)
	}
}

// TestFourWorkersRecoverExactly: a durable node with four ingest
// workers and the default detectors takes four agents' batches at once —
// 32 nodes and one minute each, two jobs across all 128 nodes, off the
// 0.1 W grid — and so applies them out of LSN order. A crash's WAL replay
// applies them in LSN order, and a restart from the snapshot written at
// Close restores them; both serve the analytics and alerts the node
// served before the crash, byte for byte, and hold the same job state,
// trends included. That holds because the agents post in lockstep, a
// minute a round: no sample comes more than foldLagMinutes behind its
// job's newest, so none is late, whatever the order.
func TestFourWorkersRecoverExactly(t *testing.T) {
	const agents, perAgent, ticks = 4, 32, 60
	src := rng.New(46)
	queues := make([][]trace.SampleBatch, agents)
	var total int64
	for tick := range ticks {
		for a := range queues {
			b := trace.SampleBatch{AgentID: fmt.Sprint("agent-", a), Seq: uint64(tick + 1)}
			for i := 0; i < perAgent; i++ {
				node := a*perAgent + i
				b.Samples = append(b.Samples, trace.PowerSample{Node: node, JobID: uint64(1 + node%2),
					Unix: 1_700_000_040 + int64(tick)*60 + int64(node/8), PowerW: 120 + 90*src.Float64()})
			}
			queues[a] = append(queues[a], b)
			total += int64(len(b.Samples))
		}
	}
	node := testNode{dir: t.TempDir(), quiet: true, anomaly: true, cfg: Config{IngestWorkers: 4}}
	s, ts := node.start(t)
	for tick := range ticks {
		errs := make(chan error, agents)
		for _, q := range queues {
			go func(b trace.SampleBatch) {
				body, _ := json.Marshal(b)
				resp, err := http.Post(ts.URL+"/v1/samples", "application/json", strings.NewReader(string(body)))
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusAccepted {
						err = fmt.Errorf("%s/%d: status %d", b.AgentID, b.Seq, resp.StatusCode)
					}
				}
				errs <- err
			}(q[tick])
		}
		for range queues {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	waitIngested(t, s, total)
	if n := s.store.LateSamples(); n != 0 {
		t.Fatalf("%d samples late in lockstep rounds", n)
	}
	before, jobs := analyticsOf(t, s, ts.URL), s.store.ExportState().Jobs
	crash(t, s, ts)

	sameJobs := func(what string, s *Server) {
		t.Helper()
		got := s.store.ExportState().Jobs
		if !reflect.DeepEqual(got, jobs) {
			for i := range jobs {
				if i < len(got) && !reflect.DeepEqual(got[i].Trend, jobs[i].Trend) {
					t.Errorf("%s: job %d trend %+v, before the crash %+v", what, jobs[i].ID, got[i].Trend, jobs[i].Trend)
				}
			}
			t.Errorf("%s: job state differs from the state before the crash", what)
		}
	}
	s, ts = node.start(t)
	if rep := s.dur.report; rep.SnapshotFound || rep.RecordsReplayed != agents*ticks {
		t.Fatalf("report %+v, want %d records replayed and no snapshot", rep, agents*ticks)
	}
	checkSameAsControl(t, "after the WAL replay", analyticsOf(t, s, ts.URL), before)
	sameJobs("after the WAL replay", s)
	s.Close()

	s, ts = node.start(t)
	if rep := s.dur.report; !rep.SnapshotFound || rep.RecordsReplayed != 0 {
		t.Fatalf("report %+v, want the snapshot and nothing replayed", rep)
	}
	checkSameAsControl(t, "after the restart from the snapshot", analyticsOf(t, s, ts.URL), before)
	sameJobs("after the restart from the snapshot", s)
}

// TestReadyzTransitions covers both 503 phases: before recovery
// completes, and during graceful drain.
func TestReadyzTransitions(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurable(durableStore(), nil, DefaultConfig(), DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "recovering") {
		t.Fatalf("before recovery: %d %s", resp.StatusCode, body)
	}
	// Ingest must also refuse while not ready.
	resp, _ = postJSON(t, ts.URL+"/v1/samples", stampedBatches(1, 1)[0])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while recovering: %d", resp.StatusCode)
	}
	// Liveness stays 200 throughout.
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during recovery: %d", resp.StatusCode)
	}

	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("after recovery: %d %s", resp.StatusCode, body)
	}

	s.Close()
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("while draining: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
}

// newQueueFullServer hand-builds a worker-less durable server over dir
// whose one queue slot is taken, so every accept is refused as outFull
// after its record reached the WAL. The caller owns the log and the dir
// lock.
func newQueueFullServer(t *testing.T, dir string, segmentBytes int64) (*Server, *durability, *wal.Log) {
	t.Helper()
	dur, err := openDurability(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	dur.log = log
	s := &Server{
		store: durableStore(),
		cfg:   Config{QueueDepth: 1}, // no workers drain it
		dedup: tsdb.NewDeduper(tsdb.DedupConfig{}),
		dur:   dur,
	}
	s.metrics = newMetrics(func() int { return s.ingestQ.Len() })
	s.initAdmit()
	s.ready.Store(true)
	s.ingestQ.Push(queuedBatch{}) // occupy the only slot
	return s, dur, log
}

// TestTombstonesPrunedOnReap: sustained queue-full overload cancels a WAL
// record per refused batch, and the in-memory set of cancellations must
// not outlive the records: once a snapshot reaps the segments that held
// them it is bounded by what is still on disk, and what is still on disk
// is still skipped by the replication stream.
func TestTombstonesPrunedOnReap(t *testing.T) {
	s, dur, log := newQueueFullServer(t, t.TempDir(), 1<<10)
	defer dur.lock.Unlock()
	defer log.Close()

	const refused = 200
	for seq := uint64(1); seq <= refused; seq++ {
		batch := trace.SampleBatch{
			AgentID: "a1", Seq: seq,
			Samples: []trace.PowerSample{{Node: 1, JobID: 7, Unix: int64(60 * seq), PowerW: 123}},
		}
		if o := s.accept(context.Background(), &batch, nil, ""); o.kind != outFull {
			t.Fatalf("full queue: outcome %d, want outFull", o.kind)
		}
	}
	tombstones := func() (n int) {
		for lsn := uint64(1); lsn <= log.LastLSN(); lsn++ {
			if log.Cancelled(lsn) {
				n++
			}
		}
		return n
	}
	if got := tombstones(); got != refused {
		t.Fatalf("%d live tombstones after %d refusals", got, refused)
	}

	if _, _, err := dur.snapshotOnce(s); err != nil {
		t.Fatal(err)
	}
	first, err := log.FirstLSN()
	if err != nil {
		t.Fatal(err)
	}
	last := log.LastLSN()
	if first <= 1 {
		t.Fatal("the snapshot reaped no segment; the test needs a rotation")
	}
	got := tombstones()
	if onDisk := int(last - first + 1); got == 0 || got > onDisk {
		t.Fatalf("%d live tombstones with lsns %d..%d on disk, want between 1 and %d", got, first, last, onDisk)
	}
	// Every data record left on disk was cancelled: none may be streamed.
	err = dur.readForRepl(first, last, func(lsn uint64, _ []byte) error {
		return fmt.Errorf("streamed cancelled lsn %d", lsn)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNewDurableFailFast: a missing, non-directory, or already-locked
// data dir is refused at construction with a descriptive error.
func TestNewDurableFailFast(t *testing.T) {
	if _, err := NewDurable(durableStore(), nil, DefaultConfig(),
		DurabilityConfig{Dir: filepath.Join(t.TempDir(), "nope")}); err == nil ||
		!strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("missing dir: %v", err)
	}

	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable(durableStore(), nil, DefaultConfig(),
		DurabilityConfig{Dir: file}); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("non-dir: %v", err)
	}

	dir := t.TempDir()
	s1, err := NewDurable(durableStore(), nil, DefaultConfig(), DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable(durableStore(), nil, DefaultConfig(),
		DurabilityConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("live lock: %v", err)
	}
	s1.dur.lock.Abandon() // die without cleanup: LOCK file stays behind

	// Stale lock (previous holder died): opens fine and reports it.
	s2, err := NewDurable(durableStore(), nil, DefaultConfig(), DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !rep.StaleLock {
		t.Fatal("stale lock not detected")
	}
}

// TestSnapshotSchedulerRuns: with an aggressive append trigger, ongoing
// ingest produces snapshots without any shutdown.
func TestSnapshotSchedulerRuns(t *testing.T) {
	dir := t.TempDir()
	s, ts := testNode{dir: dir, dur: DurabilityConfig{
		SnapshotInterval: 50 * time.Millisecond,
		SnapshotEvery:    8,
	}}.start(t)
	total := sendAll(t, ts.URL, stampedBatches(5, 40))
	waitIngested(t, s, total)
	waitFor(t, "the scheduler to write a snapshot", func() bool {
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		return len(snaps) > 0
	})
	// Metrics expose the wal_*/snapshot_* series.
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{"powserved_wal_appends_total", "powserved_snapshots_total", "powserved_recovery_records_replayed"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %s", want)
		}
	}
}

// Guard: the wal package's policy parser is what powserved's -fsync flag
// feeds; keep the three spellings working.
func TestSyncPolicySpellings(t *testing.T) {
	for _, s := range []string{"batch", "interval", "off"} {
		if _, err := wal.ParseSyncPolicy(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := wal.ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
