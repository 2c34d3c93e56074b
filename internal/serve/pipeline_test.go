package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hpcpower/internal/admit"
	"hpcpower/internal/elect"
	"hpcpower/internal/trace"
	"hpcpower/internal/vfs"
)

// codelWindow is the CoDel target and interval of the pipeline tests'
// servers: long enough that an unprovoked batch never sits above it,
// short enough to provoke a shed in two sleeps.
const codelWindow = 20 * time.Millisecond

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// parkWorker parks an idle ingest worker: it pops an empty entry whose
// ack channel nobody reads until release is called, and so pops nothing
// else meanwhile.
func parkWorker(t testing.TB, s *Server) (release func()) {
	t.Helper()
	gate := make(chan bool)
	if err := s.ingestQ.Push(queuedBatch{resc: gate}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the worker to pop the parking entry", func() bool { return s.ingestQ.Len() == 0 })
	return func() { <-gate }
}

// whileQueueFull runs send against a queue with no free slot.
func whileQueueFull(t testing.TB, s *Server, send func()) {
	t.Helper()
	release := parkWorker(t, s)
	for s.ingestQ.Len() < s.ingestQ.Cap() {
		if err := s.ingestQ.Push(queuedBatch{}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	release()
	waitFor(t, "the queue to drain", func() bool { return s.ingestQ.Len() == 0 })
}

// whileShedding runs send so that the batch it enqueues is the one CoDel
// sheds: the worker stays parked while the batch waits behind a filler;
// popping the filler over target arms the interval clock, and a full
// interval later the batch itself is popped, still over target.
func whileShedding(t testing.TB, s *Server, send func()) {
	t.Helper()
	release := parkWorker(t, s)
	filler := make(chan bool)
	if err := s.ingestQ.Push(queuedBatch{resc: filler}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for deadline := time.Now().Add(5 * time.Second); s.ingestQ.Len() < 2; {
			if time.Now().After(deadline) {
				t.Error("the batch never queued")
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		time.Sleep(codelWindow + codelWindow/2)
		release()
		time.Sleep(codelWindow + codelWindow/2)
		<-filler
	}()
	send() // answered once the worker, let go twice, sheds the batch
	<-done
}

// codelConfig is a server configuration with the one ingest worker and
// the CoDel window the helpers above rely on.
func codelConfig() Config {
	return Config{IngestWorkers: 1, Admit: admit.Config{Target: codelWindow, Interval: codelWindow}}
}

// batchCounters is the accounting of POST /v1/samples: every decoded
// batch lands in exactly one of accepted, duplicate, rejected, invalid.
type batchCounters struct {
	accepted, duplicate, stale, rejected, invalid int64
	shed                                          map[string]int64
}

var shedReasons = []string{"queue", "codel", "limiter", "agent_rate", "memory"}

func readBatchCounters(s *Server) batchCounters {
	m := s.metrics
	c := batchCounters{
		accepted: m.batchesAccepted.Value(), duplicate: m.batchesDuplicate.Value(),
		stale: m.batchesStale.Value(), rejected: m.refused[outShed].Value(),
		invalid: m.refused[outInvalid].Value(), shed: map[string]int64{},
	}
	for _, r := range shedReasons {
		c.shed[r] = m.admitShed.With(r).Value()
	}
	return c
}

// outcomeEnv is what one TestIngestOutcomes row runs against.
type outcomeEnv struct {
	s     *Server
	url   string
	ffs   *vfs.FaultFS // durable servers only
	batch trace.SampleBatch
}

func (e *outcomeEnv) post(t testing.TB) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, e.url+"/v1/samples", e.batch)
}

// TestIngestOutcomes pins, for every way accept can answer and in both
// modes, the whole client-visible and operator-visible result: status,
// error code, headers, the batch counters (each decoded batch counted
// exactly once), the shed reason, what a re-send of the same (agent, seq)
// gets — and, for a durable server, that a crash right afterwards
// recovers exactly what the live store held, with every cancelled record
// tombstoned.
func TestIngestOutcomes(t *testing.T) {
	const n = 3 // samples per batch
	type row struct {
		name        string
		durableOnly bool
		cfg         func(*Config)
		dcfg        func(*DurabilityConfig)
		setup       func(t *testing.T, e *outcomeEnv)
		run         func(t *testing.T, e *outcomeEnv) (*http.Response, []byte) // nil: a plain post
		status      int
		body        string // substring of the response body
		code        string
		headers     []string
		want        batchCounters // deltas over run
		shed        string        // the admit_shed reason that moves, if any
		// resend is what a re-send of the same (agent, seq) must get:
		// "accepted", "duplicate", "unreplicated" (refused until the
		// follower acks, then a duplicate), or — where the server cannot
		// answer again — "free" / "marked" as the state of the dedup index.
		resend     string
		heal       func(e *outcomeEnv) // before the re-send
		stored     int64               // samples in the live store at the end
		tombstoned int64               // durable: cancelled records a recovery reports
	}
	rows := []row{
		{
			name: "accepted", status: http.StatusAccepted, body: `"accepted":3`,
			want: batchCounters{accepted: 1}, resend: "duplicate", stored: n,
		},
		{
			name: "duplicate",
			setup: func(t *testing.T, e *outcomeEnv) {
				if resp, body := e.post(t); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("first delivery: %d %s", resp.StatusCode, body)
				}
			},
			status: http.StatusAccepted, body: `"duplicate":true`,
			want: batchCounters{duplicate: 1}, resend: "duplicate", stored: n,
		},
		{
			name: "stale duplicate",
			cfg:  func(c *Config) { c.DedupWindow = 64 },
			setup: func(t *testing.T, e *outcomeEnv) {
				ahead := sampleBatch(e.batch.AgentID, e.batch.Seq+64, n)
				if resp, body := postJSON(t, e.url+"/v1/samples", ahead); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("delivery ahead of the window: %d %s", resp.StatusCode, body)
				}
			},
			status: http.StatusAccepted, body: `"duplicate":true`,
			want: batchCounters{duplicate: 1, stale: 1}, resend: "duplicate", stored: n,
		},
		{
			name: "queue full",
			cfg:  func(c *Config) { c.QueueDepth = 2 },
			run: func(t *testing.T, e *outcomeEnv) (resp *http.Response, body []byte) {
				whileQueueFull(t, e.s, func() { resp, body = e.post(t) })
				return resp, body
			},
			status: http.StatusTooManyRequests, code: CodeOverCapacity,
			headers: []string{"Retry-After", HeaderRetryAfterMs, HeaderOverCapacity},
			want:    batchCounters{rejected: 1}, shed: "queue",
			resend: "accepted", stored: n, tombstoned: 1,
		},
		{
			name: "CoDel shed",
			run: func(t *testing.T, e *outcomeEnv) (resp *http.Response, body []byte) {
				whileShedding(t, e.s, func() { resp, body = e.post(t) })
				return resp, body
			},
			status: http.StatusTooManyRequests, code: CodeOverCapacity,
			headers: []string{"Retry-After", HeaderRetryAfterMs, HeaderOverCapacity},
			want:    batchCounters{rejected: 1}, shed: "codel",
			resend: "accepted", stored: n, tombstoned: 1,
		},
		{
			name: "draining race",
			// The queue closes under a handler already past the drain gate.
			setup:  func(t *testing.T, e *outcomeEnv) { e.s.ingestQ.Close(true) },
			status: http.StatusServiceUnavailable, body: "server draining",
			headers: []string{"Retry-After"},
			want:    batchCounters{rejected: 1}, resend: "free", tombstoned: 1,
		},
		{
			name: "WAL append error", durableOnly: true,
			setup: func(t *testing.T, e *outcomeEnv) {
				e.ffs.Configure(func(c *vfs.FaultConfig) { c.WriteErrProb = 1; c.PathSubstring = "wal-" })
			},
			status: http.StatusServiceUnavailable, body: "wal append", code: CodeStorageDegraded,
			headers: []string{"Retry-After", HeaderStorageDegraded},
			want:    batchCounters{rejected: 1},
			heal:    func(e *outcomeEnv) { e.ffs.Configure(func(c *vfs.FaultConfig) { c.WriteErrProb = 0 }) },
			resend:  "accepted", stored: n,
		},
		{
			name: "fsync error", durableOnly: true,
			setup: func(t *testing.T, e *outcomeEnv) {
				e.ffs.Configure(func(c *vfs.FaultConfig) { c.SyncErrProb = 1; c.PathSubstring = "wal-" })
			},
			status: http.StatusServiceUnavailable, body: "wal sync", code: CodeStorageDegraded,
			headers: []string{"Retry-After", HeaderStorageDegraded},
			// Never acked, but queued: the worker applies it, the mark stays,
			// and the record is on disk for the restart to find.
			want: batchCounters{rejected: 1}, resend: "marked", stored: n,
		},
		{
			name: "semi-sync timeout", durableOnly: true,
			dcfg: func(d *DurabilityConfig) {
				d.Replication = &ReplicationConfig{SyncAck: true, SyncAckTimeout: 50 * time.Millisecond}
			},
			// A registered follower that never acknowledges.
			setup:  func(t *testing.T, e *outcomeEnv) { e.s.dur.repl.source.Register("ghost", 0) },
			status: http.StatusInternalServerError, body: "replication ack",
			want: batchCounters{rejected: 1}, resend: "unreplicated", stored: n,
		},
		// The handler's own refusals, before accept: a gate (drain,
		// recovery, role, fencing, lease) counts nothing; from the storage
		// check on, a refusal counts as rejected or invalid.
		{
			name:   "draining at the gate",
			setup:  func(t *testing.T, e *outcomeEnv) { e.s.draining.Store(true) },
			status: http.StatusServiceUnavailable, body: "server draining",
			headers: []string{"Retry-After"},
			heal:    func(e *outcomeEnv) { e.s.draining.Store(false) },
			resend:  "accepted", stored: n,
		},
		{
			name:   "recovering",
			setup:  func(t *testing.T, e *outcomeEnv) { e.s.ready.Store(false) },
			status: http.StatusServiceUnavailable, body: "server recovering",
			headers: []string{"Retry-After"},
			heal:    func(e *outcomeEnv) { e.s.ready.Store(true) },
			resend:  "accepted", stored: n,
		},
		{
			name: "follower", durableOnly: true,
			setup:  func(t *testing.T, e *outcomeEnv) { e.s.dur.repl.isFollower.Store(true) },
			status: http.StatusServiceUnavailable, body: "read-only follower", code: CodeNotPrimary,
			headers: []string{HeaderReplRole},
			heal:    func(e *outcomeEnv) { e.s.dur.repl.isFollower.Store(false) },
			resend:  "accepted", stored: n,
		},
		{
			name: "fenced", durableOnly: true,
			setup:  func(t *testing.T, e *outcomeEnv) { e.s.dur.repl.fenced.Store(true) },
			status: http.StatusConflict, body: "write fenced", code: CodeStaleEpoch,
			headers: []string{HeaderReplFenced},
			heal:    func(e *outcomeEnv) { e.s.dur.repl.fenced.Store(false) },
			resend:  "accepted", stored: n,
		},
		{
			name: "no lease", durableOnly: true,
			// An elector that has run no round holds no lease.
			setup: func(t *testing.T, e *outcomeEnv) {
				st, err := elect.OpenStateFile(vfs.OS, filepath.Join(t.TempDir(), "ELECT"))
				if err != nil {
					t.Fatal(err)
				}
				el, err := elect.New(elect.Config{ID: "solo", State: st, Transport: &elect.HTTPTransport{},
					Epoch: func() uint64 { return 1 }, PromoteTo: func(uint64) error { return nil }})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				el.Run(ctx) // returns at once, so Close does not wait
				e.s.elector.Store(el)
			},
			status: http.StatusServiceUnavailable, body: "leader lease expired", code: CodeNoLease,
			headers: []string{HeaderReplLease},
			heal:    func(e *outcomeEnv) { e.s.elector.Store(nil) },
			resend:  "accepted", stored: n,
		},
		{
			name: "storage degraded", durableOnly: true,
			// The disk monitor's write probe fails from the first check on.
			dcfg: func(d *DurabilityConfig) {
				d.FS.(*vfs.FaultFS).Configure(func(c *vfs.FaultConfig) { c.WriteErrProb = 1; c.PathSubstring = ".disk-probe" })
			},
			setup:  func(t *testing.T, e *outcomeEnv) { waitFor(t, "storage degraded", e.s.dur.storageDegraded) },
			status: http.StatusServiceUnavailable, body: "storage degraded: disk probe failed", code: CodeStorageDegraded,
			headers: []string{"Retry-After", HeaderStorageDegraded},
			want:    batchCounters{rejected: 1},
			heal: func(e *outcomeEnv) {
				e.ffs.Configure(func(c *vfs.FaultConfig) { c.WriteErrProb = 0 })
				e.s.dur.checkDisk()
			},
			resend: "accepted", stored: n,
		},
		{
			name:   "memory watermark",
			setup:  func(t *testing.T, e *outcomeEnv) { e.s.adm.memDegraded.Store(true) },
			status: http.StatusTooManyRequests, body: "over capacity: memory", code: CodeOverCapacity,
			headers: []string{"Retry-After", HeaderRetryAfterMs, HeaderOverCapacity},
			want:    batchCounters{rejected: 1}, shed: "memory",
			heal:   func(e *outcomeEnv) { e.s.adm.memDegraded.Store(false) },
			resend: "accepted", stored: n,
		},
		{
			name: "undecodable body",
			run: func(t *testing.T, e *outcomeEnv) (*http.Response, []byte) {
				return postRaw(t, e.url+"/v1/samples", strings.NewReader(`{"samples":[`))
			},
			status: http.StatusBadRequest, body: "decoding batch",
			want: batchCounters{invalid: 1}, resend: "accepted", stored: n,
		},
		{
			name: "empty batch",
			run: func(t *testing.T, e *outcomeEnv) (*http.Response, []byte) {
				return postJSON(t, e.url+"/v1/samples", trace.SampleBatch{AgentID: e.batch.AgentID, Seq: e.batch.Seq})
			},
			status: http.StatusBadRequest, body: "empty batch",
			want: batchCounters{invalid: 1}, resend: "accepted", stored: n,
		},
		{
			name: "invalid sample",
			run: func(t *testing.T, e *outcomeEnv) (*http.Response, []byte) {
				bad := sampleBatch(e.batch.AgentID, e.batch.Seq, n)
				bad.Samples[1].PowerW = -1
				return postJSON(t, e.url+"/v1/samples", bad)
			},
			status: http.StatusBadRequest, body: "invalid batch: sample 1",
			want: batchCounters{invalid: 1}, resend: "accepted", stored: n,
		},
		{
			name: "agent rate",
			cfg:  func(c *Config) { c.Admit.AgentRate, c.Admit.AgentBurst = 0.001, 1 },
			// The agent's one token goes to another of its batches.
			setup: func(t *testing.T, e *outcomeEnv) {
				first := sampleBatch(e.batch.AgentID, e.batch.Seq+1, n)
				if resp, body := postJSON(t, e.url+"/v1/samples", first); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("first delivery: %d %s", resp.StatusCode, body)
				}
			},
			status: http.StatusTooManyRequests, body: "over capacity: agent_rate", code: CodeOverCapacity,
			headers: []string{"Retry-After", HeaderRetryAfterMs, HeaderOverCapacity},
			want:    batchCounters{rejected: 1}, shed: "agent_rate",
			resend: "free", stored: n,
		},
		{
			name: "limiter",
			// Every slot held: the next Acquire fails.
			setup: func(t *testing.T, e *outcomeEnv) {
				for e.s.adm.limiter.Acquire() {
				}
			},
			status: http.StatusTooManyRequests, body: "over capacity: limiter", code: CodeOverCapacity,
			headers: []string{"Retry-After", HeaderRetryAfterMs, HeaderOverCapacity},
			want:    batchCounters{rejected: 1}, shed: "limiter",
			heal: func(e *outcomeEnv) {
				for e.s.adm.limiter.Inflight() > 0 {
					e.s.adm.limiter.Release(0)
				}
			},
			resend: "accepted", stored: n,
		},
	}
	for _, r := range rows {
		for _, durable := range []bool{false, true} {
			if r.durableOnly && !durable {
				continue
			}
			mode := "memory-only"
			if durable {
				mode = "durable"
			}
			t.Run(r.name+"/"+mode, func(t *testing.T) {
				node := testNode{cfg: codelConfig()}
				if r.cfg != nil {
					r.cfg(&node.cfg)
				}
				e := &outcomeEnv{batch: sampleBatch("a1", 1, n)}
				dir := t.TempDir()
				if durable {
					e.ffs = vfs.NewFault(vfs.OS, vfs.FaultConfig{})
					node.dir, node.quiet, node.dur.FS = dir, true, e.ffs
					if r.dcfg != nil {
						r.dcfg(&node.dur)
					}
				}
				s, ts := node.start(t)
				e.s, e.url = s, ts.URL
				if r.setup != nil {
					r.setup(t, e)
				}

				before := readBatchCounters(s)
				run := r.run
				if run == nil {
					run = func(t *testing.T, e *outcomeEnv) (*http.Response, []byte) { return e.post(t) }
				}
				resp, body := run(t, e)
				if resp.StatusCode != r.status || !strings.Contains(string(body), r.body) {
					t.Fatalf("answer %d %s, want %d with %q", resp.StatusCode, body, r.status, r.body)
				}
				var eb struct {
					Code string `json:"code"`
				}
				if err := json.Unmarshal(body, &eb); err != nil || eb.Code != r.code {
					t.Errorf("body %s: code %q (%v), want %q", body, eb.Code, err, r.code)
				}
				for _, h := range []string{"Retry-After", HeaderRetryAfterMs, HeaderOverCapacity, HeaderStorageDegraded,
					HeaderReplRole, HeaderReplFenced, HeaderReplLease} {
					if got, want := resp.Header.Get(h) != "", slices.Contains(r.headers, h); got != want {
						t.Errorf("header %s present=%v, want %v", h, got, want)
					}
				}
				after := readBatchCounters(s)
				got := batchCounters{
					accepted: after.accepted - before.accepted, duplicate: after.duplicate - before.duplicate,
					stale: after.stale - before.stale, rejected: after.rejected - before.rejected,
					invalid: after.invalid - before.invalid,
				}
				want := r.want
				if got.accepted != want.accepted || got.duplicate != want.duplicate || got.stale != want.stale ||
					got.rejected != want.rejected || got.invalid != want.invalid {
					t.Errorf("batch counters moved by %+v, want %+v", got, want)
				}
				for _, reason := range shedReasons {
					wantShed := int64(0)
					if reason == r.shed {
						wantShed = 1
					}
					if d := after.shed[reason] - before.shed[reason]; d != wantShed {
						t.Errorf("admit_shed{reason=%q} moved by %d, want %d", reason, d, wantShed)
					}
				}

				if r.heal != nil {
					r.heal(e)
				}
				switch r.resend {
				case "accepted":
					if resp, body := e.post(t); resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), `"accepted":3`) {
						t.Errorf("re-send: %d %s, want it accepted", resp.StatusCode, body)
					}
				case "duplicate":
					if resp, body := e.post(t); resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), `"duplicate":true`) {
						t.Errorf("re-send: %d %s, want a duplicate ack", resp.StatusCode, body)
					}
				case "unreplicated":
					// Its original is not on the follower, so the duplicate is
					// not acked either — a failover now would lose it.
					if resp, body := e.post(t); resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "replication ack") {
						t.Errorf("re-send before the follower acks: %d %s, want a 500 replication ack", resp.StatusCode, body)
					}
					s.dur.repl.source.Ack("ghost", s.dur.log.LastLSN())
					if resp, body := e.post(t); resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), `"duplicate":true`) {
						t.Errorf("re-send after the follower acked: %d %s, want a duplicate ack", resp.StatusCode, body)
					}
				case "free", "marked":
					if dup, _ := s.dedup.Mark(e.batch.AgentID, e.batch.Seq); dup != (r.resend == "marked") {
						t.Errorf("dedup index holds the sequence: %v, want %s", dup, r.resend)
					}
				}
				waitIngested(t, s, r.stored)
				if got := s.store.Ingested(); got != r.stored {
					t.Errorf("live store holds %d samples, want %d", got, r.stored)
				}
				if !durable {
					return
				}

				// Crash and recover on a healthy disk: the store comes back as
				// it was, and every cancelled record stays dead.
				crash(t, s, ts)
				s2, _ := testNode{dir: dir}.start(t)
				if rep := s2.dur.report; rep.Tombstoned != r.tombstoned {
					t.Errorf("recovery skipped %d tombstoned records, want %d", rep.Tombstoned, r.tombstoned)
				}
				if got := s2.store.Ingested(); got != r.stored {
					t.Errorf("recovered store holds %d samples, want %d", got, r.stored)
				}
				if js, ok := s2.store.JobPower(7); r.stored > 0 && (!ok || js.Samples != r.stored) {
					t.Errorf("job 7 after recovery: %+v ok=%v, want %d samples", js, ok, r.stored)
				}
			})
		}
	}
}

// TestDuplicateWaitsForItsOriginal: a re-send that arrives while its
// original is still queued behind a blocked worker is not acked before the
// original is applied, and when CoDel sheds the original the re-send gets
// the same 429 over_capacity, so the agent's next retry is applied once —
// in both modes.
func TestDuplicateWaitsForItsOriginal(t *testing.T) {
	for _, shed := range []bool{false, true} {
		t.Run(map[bool]string{false: "applied", true: "shed"}[shed], func(t *testing.T) {
			t.Run("durable", func(t *testing.T) {
				duplicateWaits(t, testNode{dir: t.TempDir(), quiet: true, cfg: codelConfig()}, shed)
			})
			t.Run("memory-only", func(t *testing.T) { duplicateWaits(t, testNode{cfg: codelConfig()}, shed) })
			t.Run("memory-only-workers=4", func(t *testing.T) {
				cfg := codelConfig()
				cfg.IngestWorkers = 4
				duplicateWaits(t, testNode{cfg: cfg}, shed)
			})
		})
	}
}

func duplicateWaits(t *testing.T, node testNode, shed bool) {
	s, ts := node.start(t)
	batch := sampleBatch("a1", 1, 3)
	type answer struct {
		code int
		body string
	}
	post := func() <-chan answer {
		c := make(chan answer, 1)
		go func() {
			resp, body := postJSON(t, ts.URL+"/v1/samples", batch)
			c <- answer{resp.StatusCode, string(body)}
		}()
		return c
	}

	parked := make([]func(), s.cfg.IngestWorkers)
	for i := range parked {
		parked[i] = parkWorker(t, s)
	}
	filler := make(chan bool)
	if err := s.ingestQ.Push(queuedBatch{resc: filler}); err != nil {
		t.Fatal(err)
	}
	original := post()
	waitFor(t, "the original to queue", func() bool { return s.ingestQ.Len() == 2 })
	dup := post()
	waitFor(t, "the re-send to reach the pipeline", func() bool {
		return s.adm.limiter.Inflight() == 2 || s.metrics.batchesDuplicate.Value() > 0
	})
	select {
	case a := <-dup:
		t.Errorf("re-send answered %d %s while its original was still queued", a.code, a.body)
		dup = nil
	case <-time.After(2 * codelWindow):
	}
	if shed {
		// One worker pops the filler over target, then the original a
		// full interval later, still over target: CoDel sheds it. The
		// others stay parked until the answers are in.
		time.Sleep(codelWindow + codelWindow/2)
		parked[0]()
		time.Sleep(codelWindow + codelWindow/2)
		<-filler
	} else {
		for _, release := range parked {
			release()
		}
		<-filler
	}

	want := answer{http.StatusAccepted, `"accepted":3`}
	wantDup := answer{http.StatusAccepted, `"duplicate":true`}
	if shed {
		want = answer{http.StatusTooManyRequests, CodeOverCapacity}
		wantDup = want
	}
	for name, c := range map[string]<-chan answer{"original": original, "re-send": dup} {
		w := map[string]answer{"original": want, "re-send": wantDup}[name]
		if c == nil {
			continue // answered too early, reported above
		}
		if a := <-c; a.code != w.code || !strings.Contains(a.body, w.body) {
			t.Errorf("%s: %d %s, want %d with %q", name, a.code, a.body, w.code, w.body)
		}
	}
	if shed {
		for _, release := range parked[1:] {
			release()
		}
		if resp, body := postJSON(t, ts.URL+"/v1/samples", batch); resp.StatusCode != http.StatusAccepted ||
			!strings.Contains(string(body), `"accepted":3`) {
			t.Fatalf("the agent's next retry: %d %s, want it applied", resp.StatusCode, body)
		}
	}
	waitIngested(t, s, 3)
	if got := s.store.Ingested(); got != 3 {
		t.Fatalf("store holds %d samples, want the batch once", got)
	}
}

// fourSourcesStream is the seeded delivery sequence TestFourSourcesAgree
// plays: a flatlining job that fires an alert (every batch of it traced),
// random batches of other jobs between its slices, one batch delivered
// twice and one that the server is made to shed and that is never
// re-sent.
type delivery struct {
	batch trace.SampleBatch
	trace string
	shed  bool
}

func fourSourcesStream() []delivery {
	const agent = "four"
	flat := flatBatches(agent, 61, 2, 1_700_000_000, 45, 210)
	noise := stampedBatches(16, len(flat)+2)
	var out []delivery
	seq := uint64(0)
	next := func(b trace.SampleBatch, traceID string) delivery {
		seq++
		b.AgentID, b.Seq = agent, seq
		return delivery{batch: b, trace: traceID}
	}
	for i, b := range flat {
		out = append(out, next(b, "trace-four"), next(noise[i], ""))
		switch i {
		case 2:
			out = append(out, out[len(out)-1]) // the same (agent, seq) again
		case 4:
			victim := next(noise[len(flat)], "")
			victim.shed = true
			out = append(out, victim)
		}
	}
	return append(out, next(noise[len(flat)+1], ""))
}

// play delivers the stream to a server the way a shipper would, except
// that the shed victim is not re-sent.
func play(t *testing.T, s *Server, url string, stream []delivery) {
	t.Helper()
	send := func(d delivery) int { return postTraced(t, url, d.trace, d.batch).StatusCode }
	for _, d := range stream {
		if d.shed {
			var code int
			whileShedding(t, s, func() { code = send(d) })
			if code != http.StatusTooManyRequests {
				t.Fatalf("seq %d: %d, want the provoked shed's 429", d.batch.Seq, code)
			}
			continue
		}
		// An unprovoked shed (a stalled test machine) is the agent's to
		// retry; it leaves the same state behind.
		for code := send(d); code != http.StatusAccepted; code = send(d) {
			if code != http.StatusTooManyRequests {
				t.Fatalf("seq %d: %d", d.batch.Seq, code)
			}
		}
	}
}

// TestFourSourcesAgree is the property the one-pipeline design exists to
// protect: the same delivery sequence — with a duplicate, a shed and a
// traced alert in it — leaves identical analytics, dedup decisions and
// alert history behind whether it came through a memory-only server, a
// durable primary, that primary's follower, or a replay of the primary's
// WAL after a crash.
func TestFourSourcesAgree(t *testing.T) {
	stream := fourSourcesStream()
	var applied int64
	seen := map[uint64]bool{}
	for _, d := range stream {
		if !d.shed && !seen[d.batch.Seq] {
			applied += int64(len(d.batch.Samples))
		}
		seen[d.batch.Seq] = true
	}
	// A node's dedup marks are its dedup decisions; the LRU clock is not.
	dump := func(s *Server) string { return stateOf(s).forgetDeliveries().String() }
	node := testNode{cfg: codelConfig(), anomaly: true, quiet: true}

	mem, tsMem := node.start(t)
	play(t, mem, tsMem.URL, stream)
	waitIngested(t, mem, applied)
	want := dump(mem)
	if !strings.Contains(want, `"type":"fire"`) || !strings.Contains(want, `"trace":"trace-four"`) {
		t.Fatalf("the stream fired no traced alert:\n%s", want)
	}

	dir := t.TempDir()
	node.dir = dir
	primary, tsP := node.start(t)
	node.dir, node.follow = t.TempDir(), tsP.URL
	follower, _ := node.start(t)
	play(t, primary, tsP.URL, stream)
	waitIngested(t, primary, applied)
	last := primary.dur.log.LastLSN() // the stream ends on an applied batch
	waitFor(t, "the follower to catch up", func() bool {
		return follower.dur.repl.replApplied.Load() == last
	})
	got := map[string]string{"durable primary": dump(primary), "follower": dump(follower)}
	follower.Close()

	crash(t, primary, tsP)
	primary.ingestQ.Close(true)
	node.dir, node.follow = dir, ""
	recovered, _ := node.start(t)
	if rep := recovered.dur.report; rep.SnapshotFound || rep.Tombstoned != 1 {
		t.Fatalf("recovery: snapshot found %v, %d tombstoned; want a pure replay with the one shed record cancelled",
			rep.SnapshotFound, rep.Tombstoned)
	}
	got["recovered primary"] = dump(recovered)

	for source, state := range got {
		if state != want {
			t.Errorf("%s disagrees with the memory-only server:\n%s\nwant:\n%s", source, state, want)
		}
	}
}
