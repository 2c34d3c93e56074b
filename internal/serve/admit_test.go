package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpcpower/internal/admit"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

// sampleBatch builds an n-sample batch for one agent/sequence.
func sampleBatch(agent string, seq uint64, n int) trace.SampleBatch {
	b := trace.SampleBatch{AgentID: agent, Seq: seq}
	for i := 0; i < n; i++ {
		b.Samples = append(b.Samples, trace.PowerSample{
			Node: i % 8, JobID: 7, Unix: int64(60 + i), PowerW: 100,
		})
	}
	return b
}

// TestMemPressureShedsIngest crosses the memory watermark and checks
// the full degraded-mode surface: ingest sheds 429 over_capacity with
// the over-capacity marker and both retry hints, range queries shed at
// critical pressure, predict (ungated) keeps serving, and /readyz
// reports the condition without going unready.
func TestMemPressureShedsIngest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Admit.MemWatermark = 1024 // one ring blows straight through this
	cfg.Admit.Step = 5 * time.Millisecond
	s, ts := testNode{cfg: cfg, model: trainedModel(t)}.start(t)

	// First batch is admitted (not yet degraded) and creates rings + job
	// state well beyond the watermark.
	resp, body := postJSON(t, ts.URL+"/v1/samples", sampleBatch("a1", 1, 64))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-pressure ingest: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "the mem monitor to degrade", s.adm.memDegraded.Load)

	resp, body = postJSON(t, ts.URL+"/v1/samples", sampleBatch("a1", 2, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ingest under memory pressure: %d %s, want 429", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), CodeOverCapacity) {
		t.Fatalf("429 body %s, want code %q", body, CodeOverCapacity)
	}
	if resp.Header.Get(HeaderOverCapacity) != "1" {
		t.Fatal("429 must carry the over-capacity marker header")
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get(HeaderRetryAfterMs) == "" {
		t.Fatalf("429 must carry both retry hints; got %q / %q",
			resp.Header.Get("Retry-After"), resp.Header.Get(HeaderRetryAfterMs))
	}

	// Critical pressure sheds the query class...
	resp, body = get(t, ts.URL+"/v1/query/nodes")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("query at critical pressure: %d %s, want 429", resp.StatusCode, body)
	}
	// ...but prediction (ungated: schedulers need it most under load)
	// and node reads keep serving.
	resp, body = postJSON(t, ts.URL+"/v1/predict", PredictRequest{User: "u001", Nodes: 4, WallHours: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict under memory pressure: %d %s, want 200", resp.StatusCode, body)
	}

	// /readyz stays 200 (reads still serve) and reports the condition.
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz under memory pressure: %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"mem_degraded":true`) {
		t.Fatalf("readyz body %s, want mem_degraded:true", body)
	}
	if got := s.pressure(); got != admit.PressureCritical {
		t.Fatalf("pressure = %d, want critical", got)
	}
}

// TestMemEvalHysteresis drives memEval by hand on a worker-less server
// and checks the watermark/resume hysteresis: degrade at the watermark,
// stay degraded in the dead band, clear only below resume — no
// oscillation at the boundary.
func TestMemEvalHysteresis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 8
	s := &Server{
		store: tsdb.New(tsdb.Config{Shards: 1, RingLen: 16}),
		cfg:   cfg,
		dedup: tsdb.NewDeduper(tsdb.DedupConfig{}),
	}
	s.metrics = newMetrics(func() int { return s.ingestQ.Len() })
	s.initAdmit()
	s.adm.cfg.MemWatermark = 1000
	s.adm.cfg.MemResume = 800
	now := time.Now()

	// Queue bytes are the controllable component: one 20-sample batch
	// accounts 128 + 48×20 = 1088 bytes > watermark.
	big := queuedBatch{WALRecord: trace.WALRecord{Samples: make([]trace.PowerSample, 20)}}
	small := queuedBatch{WALRecord: trace.WALRecord{Samples: make([]trace.PowerSample, 15)}} // 848 bytes: dead band
	if err := s.ingestQ.Push(big); err != nil {
		t.Fatal(err)
	}
	s.memEval(now)
	if !s.adm.memDegraded.Load() {
		t.Fatalf("memBytes=%d over watermark must degrade", s.memBytes())
	}
	s.memEval(now)
	if got := s.adm.memTransitions.Load(); got != 1 {
		t.Fatalf("repeated over-watermark evals: transitions=%d, want 1", got)
	}

	// Drop into the dead band (resume ≤ mem < watermark): must stay
	// degraded — that is the hysteresis.
	s.ingestQ.Pop()
	s.ingestQ.Push(small)
	s.memEval(now)
	if !s.adm.memDegraded.Load() {
		t.Fatalf("memBytes=%d in dead band must stay degraded", s.memBytes())
	}

	// Below resume: clears.
	s.ingestQ.Pop()
	s.memEval(now)
	if s.adm.memDegraded.Load() {
		t.Fatalf("memBytes=%d below resume must clear", s.memBytes())
	}
	if got := s.adm.memTransitions.Load(); got != 2 {
		t.Fatalf("transitions=%d, want 2 (one up, one down)", got)
	}
}

// TestAgentRateLimit429 checks the per-agent token bucket end to end:
// an agent that exceeds its burst gets 429 over_capacity with a
// sub-second retry hint while a second agent is untouched.
func TestAgentRateLimit429(t *testing.T) {
	_, ts := testNode{cfg: Config{Admit: admit.Config{AgentRate: 1, AgentBurst: 2}}}.start(t)

	for seq := uint64(1); seq <= 2; seq++ {
		resp, body := postJSON(t, ts.URL+"/v1/samples", sampleBatch("hog", seq, 1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst send %d: %d %s", seq, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/samples", sampleBatch("hog", 3, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate send: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get(HeaderRetryAfterMs) == "" {
		t.Fatal("rate-limit 429 must carry the millisecond retry hint")
	}
	resp, body = postJSON(t, ts.URL+"/v1/samples", sampleBatch("polite", 1, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other agent must be unaffected: %d %s", resp.StatusCode, body)
	}
}

// TestAdminShedsAtElevatedPressure: admin-class endpoints shed as soon
// as the ingest queue is half full (elevated pressure), while queries
// still serve. Worker-less server so the occupancy is deterministic.
func TestAdminShedsAtElevatedPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 4
	s := &Server{
		store: tsdb.New(tsdb.Config{Shards: 1, RingLen: 16}),
		cfg:   cfg,
		dedup: tsdb.NewDeduper(tsdb.DedupConfig{}),
	}
	s.metrics = newMetrics(func() int { return s.ingestQ.Len() })
	s.initAdmit()

	for i := 0; i < 2; i++ { // half occupancy
		s.ingestQ.Push(queuedBatch{})
	}
	if p := s.pressure(); p != admit.PressureElevated {
		t.Fatalf("pressure at half occupancy = %d, want elevated", p)
	}
	okHandler := func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }
	req := httptest.NewRequest(http.MethodGet, "/", nil)

	rec := httptest.NewRecorder()
	s.gated(admit.ClassAdmin, "admin", okHandler)(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("admin at elevated pressure: %d, want 429", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.gated(admit.ClassQuery, "query", okHandler)(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query at elevated pressure: %d, want 200", rec.Code)
	}
}
