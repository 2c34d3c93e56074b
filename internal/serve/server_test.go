package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcpower/internal/mlearn"
	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

func trainedModel(t testing.TB) *mlearn.BDT {
	t.Helper()
	src := rng.New(7)
	users := []string{"u001", "u002", "u003"}
	var samples []mlearn.Sample
	for i := 0; i < 200; i++ {
		u := int(src.Uint64() % 3)
		samples = append(samples, mlearn.Sample{
			Features: mlearn.Features{
				User:      users[u],
				Nodes:     1 + int(src.Uint64()%32),
				WallHours: 0.5 + 12*src.Float64(),
			},
			PowerW: 100 + 30*float64(u) + 5*src.Float64(),
		})
	}
	m := mlearn.NewBDT(mlearn.DefaultTreeParams())
	if err := m.Fit(samples); err != nil {
		t.Fatal(err)
	}
	return m
}

// postJSON POSTs body as JSON, with the header pairs given (name,
// value, …).
func postJSON(t testing.TB, url string, body any, header ...string) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, bytes.NewReader(buf), header...)
}

// postRaw POSTs body's bytes as they are — the fallback tests need forms
// json.Marshal never writes — with the header pairs given.
func postRaw(t testing.TB, url string, body io.Reader, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// waitIngested polls until the store has absorbed want samples (ingest is
// asynchronous behind the bounded queue).
func waitIngested(t testing.TB, s *Server, want int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d samples ingested", want), func() bool { return s.store.Ingested() >= want })
}

// TestUnencodableAnswerIs500: a job whose variance overflowed to +Inf
// has no JSON form. Its power and the summary answer 500 with the
// encoder's error, not a 200 with an empty body.
func TestUnencodableAnswerIs500(t *testing.T) {
	s, ts := testNode{}.start(t)
	var batch trace.SampleBatch
	for i, w := range []float64{120, 1e300, 0, 5} {
		batch.Samples = append(batch.Samples, trace.PowerSample{Node: 1, JobID: 7, Unix: 1_700_000_000 + 60*int64(i), PowerW: w})
	}
	if resp, body := postJSON(t, ts.URL+"/v1/samples", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	waitIngested(t, s, 4)
	for _, path := range []string{"/v1/summary", "/v1/jobs/7/power"} {
		resp, body := get(t, ts.URL+path)
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &eb); resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(eb.Error, "+Inf") {
			t.Errorf("%s = %d %q (%v), want 500 with a JSON error naming +Inf", path, resp.StatusCode, body, err)
		}
	}
}

func TestIngestAndQueryRoundTrip(t *testing.T) {
	s, ts := testNode{}.start(t)
	batch := trace.SampleBatch{}
	for m := 0; m < 10; m++ {
		for n := 0; n < 4; n++ {
			batch.Samples = append(batch.Samples, trace.PowerSample{
				Node: n, JobID: 5, Unix: int64(6000 + 60*m), PowerW: 100 + float64(n),
			})
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/samples", batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	waitIngested(t, s, 40)

	// Node series.
	resp, body = get(t, ts.URL+"/v1/nodes/2/series?from=6000&to=6300")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("series status %d: %s", resp.StatusCode, body)
	}
	var series struct {
		Node   int          `json:"node"`
		Points []tsdb.Point `json:"points"`
	}
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatal(err)
	}
	if series.Node != 2 || len(series.Points) != 6 {
		t.Errorf("series = node %d with %d points", series.Node, len(series.Points))
	}

	// Live job characterization.
	resp, body = get(t, ts.URL+"/v1/jobs/5/power")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job power status %d: %s", resp.StatusCode, body)
	}
	var js tsdb.JobStats
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.Samples != 40 || js.Nodes != 4 || js.MeanW < 100 || js.MeanW > 104 {
		t.Errorf("job stats = %+v", js)
	}
	// Spread across nodes is exactly 3 W every minute.
	if js.AvgSpatialSpreadW < 2.99 || js.AvgSpatialSpreadW > 3.01 {
		t.Errorf("spatial spread = %v", js.AvgSpatialSpreadW)
	}

	// Unknown job → 404.
	resp, _ = get(t, ts.URL+"/v1/jobs/999/power")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d", resp.StatusCode)
	}

	// Summary.
	resp, body = get(t, ts.URL+"/v1/summary")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary status %d", resp.StatusCode)
	}
	var sum tsdb.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Samples != 40 || sum.Nodes != 4 || sum.Jobs != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestIngestRejectsBadBatches(t *testing.T) {
	_, ts := testNode{}.start(t)
	for name, body := range map[string]string{
		"not json":       "xyzzy",
		"empty batch":    `{"samples":[]}`,
		"negative node":  `{"samples":[{"node":-1,"job":1,"t":60,"w":100}]}`,
		"negative power": `{"samples":[{"node":1,"job":1,"t":60,"w":-5}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/samples", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestPredictMatchesOfflineModel(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := mlearn.LoadBDT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testNode{model: loaded}.start(t)

	for _, f := range []PredictRequest{
		{User: "u001", Nodes: 4, WallHours: 2},
		{User: "u003", Nodes: 16, WallHours: 11.5},
		{User: "unseen", Nodes: 1, WallHours: 0.5},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/predict", f)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d: %s", resp.StatusCode, body)
		}
		var pr PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		// The served prediction must equal the offline model exactly.
		want, wantStd, wantN := m.PredictWithStd(mlearn.Features{
			User: f.User, Nodes: f.Nodes, WallHours: f.WallHours,
		})
		if pr.PredictedW != want || pr.LeafStdW != wantStd || pr.LeafN != wantN {
			t.Errorf("predict(%+v) = %+v, want (%v, %v, %d)", f, pr, want, wantStd, wantN)
		}
	}

	// Invalid request.
	resp, _ := postJSON(t, ts.URL+"/v1/predict", PredictRequest{User: "u001"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid predict status %d", resp.StatusCode)
	}
}

func TestPredictWithoutModel(t *testing.T) {
	_, ts := testNode{}.start(t)
	resp, _ := postJSON(t, ts.URL+"/v1/predict", PredictRequest{User: "u", Nodes: 1, WallHours: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("predict without model: status %d", resp.StatusCode)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	s, ts := testNode{}.start(t)
	batch := trace.SampleBatch{Samples: []trace.PowerSample{{Node: 0, JobID: 1, Unix: 60, PowerW: 50}}}
	postJSON(t, ts.URL+"/v1/samples", batch)
	waitIngested(t, s, 1)
	get(t, ts.URL+"/v1/jobs/1/power")

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"powserved_samples_ingested_total 1",
		"powserved_batches_accepted_total 1",
		`powserved_requests_total{endpoint="ingest"} 1`,
		`powserved_requests_total{endpoint="job_power"} 1`,
		"powserved_ingest_queue_depth",
		"powserved_request_seconds_sum",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestGracefulShutdown exercises ListenAndServe: concurrent ingest while
// the context is cancelled; the server must drain the queue (nothing
// accepted is lost) and exit cleanly.
func TestGracefulShutdown(t *testing.T) {
	store := tsdb.New(tsdb.Config{Shards: 4, RingLen: 64})
	s := New(store, nil, Config{QueueDepth: 64, IngestWorkers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	addr, done, err := s.ListenAndServe(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr

	var mu sync.Mutex
	accepted := 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				batch := trace.SampleBatch{Samples: []trace.PowerSample{
					{Node: w, JobID: uint64(w + 1), Unix: int64(60 * (i + 1)), PowerW: 100},
				}}
				buf, _ := json.Marshal(batch)
				resp, err := http.Post(url+"/v1/samples", "application/json", bytes.NewReader(buf))
				if err != nil {
					return // server may already be shutting down
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusAccepted {
					mu.Lock()
					accepted++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown timed out")
	}
	mu.Lock()
	want := int64(accepted)
	mu.Unlock()
	if got := store.Ingested(); got != want {
		t.Errorf("after drain: ingested %d, want %d", got, want)
	}
	// Port is released.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestIngestDeduplicates delivers the same (agent, seq) batch twice:
// the second must be acknowledged without re-counting, and both the
// duplicate and redelivery counters must surface on /metrics.
func TestIngestDeduplicates(t *testing.T) {
	s, ts := testNode{}.start(t)
	batch := trace.SampleBatch{
		AgentID: "agent-x", Seq: 1,
		Samples: []trace.PowerSample{{Node: 1, JobID: 7, Unix: 60, PowerW: 100}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/samples", batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first delivery: %d %s", resp.StatusCode, body)
	}
	waitIngested(t, s, 1)

	// Redelivery of the same sequence: acknowledged, not re-counted.
	batch.Redelivery = true
	resp, body = postJSON(t, ts.URL+"/v1/samples", batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("redelivery: %d %s", resp.StatusCode, body)
	}
	var ack struct {
		Accepted  int  `json:"accepted"`
		Duplicate bool `json:"duplicate"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 0 || !ack.Duplicate {
		t.Errorf("redelivery ack = %+v, want accepted=0 duplicate=true", ack)
	}
	time.Sleep(10 * time.Millisecond)
	if got := s.store.Ingested(); got != 1 {
		t.Errorf("store ingested %d after duplicate delivery, want 1", got)
	}
	js, _ := s.store.JobPower(7)
	if js.Samples != 1 {
		t.Errorf("job analytics counted %d samples, want 1 (no double count)", js.Samples)
	}

	// A new sequence from the same agent is accepted normally.
	resp, _ = postJSON(t, ts.URL+"/v1/samples", trace.SampleBatch{
		AgentID: "agent-x", Seq: 2,
		Samples: []trace.PowerSample{{Node: 1, JobID: 7, Unix: 120, PowerW: 101}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seq 2: %d", resp.StatusCode)
	}
	waitIngested(t, s, 2)

	// Stamp validation: agent without seq (and vice versa) is rejected.
	for _, bad := range []trace.SampleBatch{
		{AgentID: "agent-x", Samples: batch.Samples},
		{Seq: 3, Samples: batch.Samples},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/samples", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("invalid stamp %+v: status %d, want 400", bad, resp.StatusCode)
		}
	}

	_, body = get(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		"powserved_batches_duplicate_total 1",
		"powserved_redeliveries_total 1",
		`powserved_agent_breaker_state{agent="agent-x"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestIngestRecordsAgentReports checks the agent-health headers a
// shipper stamps on deliveries are republished as /metrics gauges.
func TestIngestRecordsAgentReports(t *testing.T) {
	_, ts := testNode{}.start(t)
	batch := trace.SampleBatch{
		AgentID: "node-17", Seq: 1,
		Samples: []trace.PowerSample{{Node: 1, JobID: 1, Unix: 60, PowerW: 50}},
	}
	resp, _ := postJSON(t, ts.URL+"/v1/samples", batch,
		HeaderBreakerState, "half-open", HeaderAgentRetries, "42", HeaderSpillDepth, "9")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	_, body := get(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		`powserved_agent_breaker_state{agent="node-17"} 1`,
		`powserved_agent_retries{agent="node-17"} 42`,
		`powserved_agent_spill_depth{agent="node-17"} 9`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRetryAfterScalesWithQueueOccupancy covers the adaptive
// backpressure hint: empty queue → 1 s, full queue → 5 s, monotonic in
// between — and the hint a real rejection carries reflects a full queue.
func TestRetryAfterScalesWithQueueOccupancy(t *testing.T) {
	const capacity = 64
	prev := 0
	for depth := 0; depth <= capacity; depth += 8 {
		got := retryAfterSeconds(depth, capacity)
		if got < prev {
			t.Errorf("retryAfterSeconds(%d, %d) = %d < previous %d (not monotonic)", depth, capacity, got, prev)
		}
		prev = got
	}
	if got := retryAfterSeconds(0, capacity); got != 1 {
		t.Errorf("empty queue hint = %d, want 1", got)
	}
	if got := retryAfterSeconds(capacity, capacity); got != 5 {
		t.Errorf("full queue hint = %d, want 5", got)
	}
	if retryAfterSeconds(capacity, capacity) <= retryAfterSeconds(capacity/4, capacity) {
		t.Error("hint does not grow as the queue fills")
	}

	// End to end: a rejection from a saturated queue carries the
	// full-queue hint, not the old hardcoded "1".
	_, ts := testNode{cfg: Config{QueueDepth: 2, IngestWorkers: 1}}.start(t)
	batch := trace.SampleBatch{Samples: []trace.PowerSample{{Node: 1, JobID: 1, Unix: 60, PowerW: 10}}}
	sawFull := false
	for i := 0; i < 500 && !sawFull; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/samples", batch)
		if resp.StatusCode == http.StatusServiceUnavailable {
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil {
				t.Fatalf("unparseable Retry-After %q", resp.Header.Get("Retry-After"))
			}
			if ra < 2 {
				t.Fatalf("full-queue Retry-After = %d, want scaled value ≥ 2", ra)
			}
			sawFull = true
		}
	}
	if !sawFull {
		t.Skip("queue never saturated (machine too fast); helper assertions above still cover scaling")
	}
}

// TestTimeoutResponseIsJSON is the regression test for the
// http.TimeoutHandler Content-Type fix: a timed-out request must get
// the JSON error body *as* application/json.
func TestTimeoutResponseIsJSON(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
	})
	ts := httptest.NewServer(timeoutJSON(slow, 20*time.Millisecond))
	defer ts.Close()
	resp, body := get(t, ts.URL+"/v1/predict")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("timeout Content-Type = %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("timeout body %q is not the JSON error", body)
	}

	// Handlers that finish in time keep their own Content-Type.
	_, hts := testNode{}.start(t)
	resp, _ = get(t, hts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain (not clobbered by the timeout wrapper)", ct)
	}
	resp, _ = get(t, hts.URL+"/healthz")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/healthz Content-Type = %q", ct)
	}
}

// TestCloseMidFloodKeepsAcceptedBatches floods ingest from many
// goroutines and calls Close in the middle: every batch that got a 202
// must be queryable afterwards (no accepted-then-lost samples), and no
// send may race the queue close (panics would crash the handler).
func TestCloseMidFloodKeepsAcceptedBatches(t *testing.T) {
	s, ts := testNode{cfg: Config{QueueDepth: 8, IngestWorkers: 1}}.start(t)
	store := s.store

	const flooders = 8
	var wg sync.WaitGroup
	var accepted atomic.Int64
	acceptedNodes := make([]map[int]bool, flooders)
	start := make(chan struct{})
	for f := 0; f < flooders; f++ {
		acceptedNodes[f] = map[int]bool{}
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				node := f*1000 + i
				batch := trace.SampleBatch{
					AgentID: fmt.Sprintf("flood-%d", f), Seq: uint64(i + 1),
					Samples: []trace.PowerSample{{Node: node, JobID: uint64(f + 1), Unix: int64(60 * (i + 1)), PowerW: 100}},
				}
				buf, _ := json.Marshal(batch)
				resp, err := http.Post(ts.URL+"/v1/samples", "application/json", bytes.NewReader(buf))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusAccepted {
					accepted.Add(1)
					acceptedNodes[f][node] = true
				}
			}
		}(f)
	}
	close(start)
	// Let the flood build: wait for the first 202 (a fixed sleep flakes
	// under the race detector, where the first apply-acked round trip can
	// take arbitrarily long), then a moment more so Close lands mid-flood.
	for deadline := time.Now().Add(5 * time.Second); accepted.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(2 * time.Millisecond)
	s.Close() // mid-flood: drains the queue, flips handlers to 503
	wg.Wait()

	if accepted.Load() == 0 {
		t.Fatal("nothing accepted before Close")
	}
	if got := store.Ingested(); got != accepted.Load() {
		t.Fatalf("store ingested %d, want %d (every 202'd batch)", got, accepted.Load())
	}
	// Every individually accepted sample is queryable.
	for f := range acceptedNodes {
		for node := range acceptedNodes[f] {
			if pts := store.NodeSeries(node, 0, 0); len(pts) != 1 {
				t.Fatalf("node %d: 202-accepted sample not queryable after Close (%d points)", node, len(pts))
			}
		}
	}
	// And ingest now answers 503 draining.
	batch := trace.SampleBatch{Samples: []trace.PowerSample{{Node: 1, JobID: 1, Unix: 60, PowerW: 1}}}
	resp, _ := postJSON(t, ts.URL+"/v1/samples", batch)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-Close ingest status %d, want 503", resp.StatusCode)
	}
}

func TestJobsListEndpoint(t *testing.T) {
	s, ts := testNode{}.start(t)
	resp, body := get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"jobs":[]`) {
		t.Fatalf("empty jobs list: %d %s", resp.StatusCode, body)
	}
	postJSON(t, ts.URL+"/v1/samples", trace.SampleBatch{Samples: []trace.PowerSample{
		{Node: 0, JobID: 3, Unix: 60, PowerW: 10},
		{Node: 0, JobID: 1, Unix: 60, PowerW: 10},
	}})
	waitIngested(t, s, 2)
	_, body = get(t, ts.URL+"/v1/jobs")
	var out struct {
		Jobs []uint64 `json:"jobs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 || out.Jobs[0] != 1 || out.Jobs[1] != 3 {
		t.Errorf("jobs = %v, want [1 3]", out.Jobs)
	}
}
