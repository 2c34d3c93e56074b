package chaos

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpcpower/internal/serve"
	"hpcpower/internal/ship"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

func newProxy(t *testing.T, cfg Config) (*Proxy, *httptest.Server) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	return p, ts
}

func TestProxyPassThrough(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo-Path", r.URL.Path)
		w.WriteHeader(http.StatusTeapot)
		w.Write(body)
	}))
	defer backend.Close()
	p, ts := newProxy(t, Config{Target: backend.URL})

	resp, err := http.Post(ts.URL+"/v1/samples?x=1", "application/json", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot || string(body) != "hello" ||
		resp.Header.Get("X-Echo-Path") != "/v1/samples" {
		t.Errorf("passthrough mangled: %d %q %q", resp.StatusCode, body, resp.Header.Get("X-Echo-Path"))
	}
	st := p.Stats()
	if st.Requests != 1 || st.Clean != 1 || st.Dropped+st.Injected5+st.Resets+st.Truncated != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyInjectsConfiguredFaults(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"accepted":1,"padding":"0123456789012345678901234567890123456789"}`))
	}))
	defer backend.Close()
	p, ts := newProxy(t, Config{
		Target:   backend.URL,
		DropRate: 0.15, Err5xxRate: 0.15, ResetRate: 0.15, TruncateRate: 0.15,
		Seed: 7,
	})

	client := &http.Client{Timeout: 5 * time.Second}
	const n = 400
	transportErrs, fivexx, ok := 0, 0, 0
	for i := 0; i < n; i++ {
		resp, err := client.Post(ts.URL+"/v1/samples", "application/json", strings.NewReader("{}"))
		if err != nil {
			transportErrs++ // drop or reset
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode >= 500:
			fivexx++
		case rerr != nil || len(body) < 60:
			transportErrs++ // truncation surfaces as a body read error
		default:
			ok++
		}
	}
	st := p.Stats()
	t.Logf("stats = %+v; client saw ok=%d 5xx=%d transport=%d", st, ok, fivexx, transportErrs)
	if st.Requests != n {
		t.Fatalf("proxy saw %d requests, want %d", st.Requests, n)
	}
	for name, c := range map[string]int64{
		"dropped": st.Dropped, "5xx": st.Injected5, "resets": st.Resets, "truncated": st.Truncated,
	} {
		// 15% each over 400 draws: all fault types must fire.
		if c == 0 {
			t.Errorf("fault type %q never injected", name)
		}
	}
	if st.Clean+st.Dropped+st.Injected5+st.Resets+st.Truncated != n {
		t.Errorf("fault accounting does not sum to requests: %+v", st)
	}
	if ok == 0 || transportErrs == 0 || fivexx == 0 {
		t.Errorf("client outcome mix degenerate: ok=%d 5xx=%d transport=%d", ok, fivexx, transportErrs)
	}
}

func TestProxyPathPrefixExemption(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer backend.Close()
	_, ts := newProxy(t, Config{
		Target: backend.URL, DropRate: 0.5, Err5xxRate: 0.5,
		PathPrefix: "/v1/samples", Seed: 3,
	})
	// Non-matching paths must never be faulted.
	for i := 0; i < 50; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz faulted through exempt path: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz got %d through exempt path", resp.StatusCode)
		}
	}
}

// TestPipelineZeroLossZeroDup is the package's reason to exist: the same
// telemetry shipped once over a clean network and once through ≥10%
// injected faults (drops + 5xx + resets + truncation) must land in the
// store *identically* — nothing lost, nothing double-counted.
func TestPipelineZeroLossZeroDup(t *testing.T) {
	mkSamples := func() [][]trace.PowerSample {
		var batches [][]trace.PowerSample
		for m := 0; m < 40; m++ {
			var b []trace.PowerSample
			for node := 0; node < 8; node++ {
				b = append(b, trace.PowerSample{
					Node:   node,
					JobID:  uint64(1 + node/3),
					Unix:   int64(6000 + 60*m),
					PowerW: 100 + float64(node) + float64(m%7),
				})
			}
			batches = append(batches, b)
		}
		return batches
	}

	// IngestWorkers=1 and a single shipper keep sample order identical in
	// both runs, so the streaming analytics are comparable field by field.
	run := func(t *testing.T, faulty bool) (*tsdb.Store, *serve.Server, string, ship.Stats) {
		store := tsdb.New(tsdb.Config{Shards: 4, RingLen: 4096})
		srv := serve.New(store, nil, serve.Config{QueueDepth: 64, IngestWorkers: 1})
		hts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { hts.Close(); srv.Close() })

		target := hts.URL
		if faulty {
			p, err := New(Config{
				Target:   hts.URL,
				DropRate: 0.10, Err5xxRate: 0.08, ResetRate: 0.08, TruncateRate: 0.05,
				PathPrefix: "/v1/samples",
				Seed:       99,
			})
			if err != nil {
				t.Fatal(err)
			}
			pts := httptest.NewServer(p)
			t.Cleanup(pts.Close)
			target = pts.URL
			t.Cleanup(func() { t.Logf("chaos stats: %+v", p.Stats()) })
		}

		sh := ship.New(ship.Config{
			URL:     target + "/v1/samples",
			AgentID: "pipeline-agent",
			Client:  &http.Client{Timeout: 5 * time.Second},
			// Fast retry/breaker settings so the test finishes quickly.
			BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
			BreakerThreshold: 4, BreakerCooldown: 20 * time.Millisecond,
			MaxPending: 1024,
			Seed:       5,
		})
		for _, b := range mkSamples() {
			sh.Enqueue(b)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := sh.Flush(ctx); err != nil {
			t.Fatalf("flush: %v", err)
		}
		return store, srv, hts.URL, sh.Stats()
	}

	want := 40 * 8
	cleanStore, _, _, cleanStats := run(t, false)
	waitStoreIngested(t, cleanStore, int64(want))
	chaosStore, _, chaosURL, chaosStats := run(t, true)
	waitStoreIngested(t, chaosStore, int64(want))
	t.Logf("clean ship stats: %+v", cleanStats)
	t.Logf("chaos ship stats: %+v", chaosStats)

	// Zero loss, zero double-count: exact sample counts on both sides.
	if got := chaosStore.Ingested(); got != int64(want) {
		t.Fatalf("chaos run ingested %d samples, want exactly %d", got, want)
	}
	if chaosStats.DroppedSamples != 0 || chaosStats.EvictedBatches != 0 || chaosStats.PoisonedBatches != 0 {
		t.Fatalf("chaos shipper lost data: %+v", chaosStats)
	}
	if chaosStats.Retries == 0 {
		t.Error("chaos run saw no retries — fault injection did not bite")
	}

	// Store-wide reduction must match bit for bit.
	if c, f := cleanStore.Summarize(), chaosStore.Summarize(); c != f {
		t.Errorf("summaries diverge:\n clean %+v\n chaos %+v", c, f)
	}

	// Per-job streaming analytics: identical up to the snapshot's
	// map-iteration fold of open minutes (spread fields only).
	for _, id := range cleanStore.Jobs() {
		c, _ := cleanStore.JobPower(id)
		f, ok := chaosStore.JobPower(id)
		if !ok {
			t.Fatalf("job %d missing from chaos run", id)
		}
		cSpread, fSpread := c.AvgSpatialSpreadW, f.AvgSpatialSpreadW
		cPct, fPct := c.SpatialSpreadPct, f.SpatialSpreadPct
		c.AvgSpatialSpreadW, f.AvgSpatialSpreadW = 0, 0
		c.SpatialSpreadPct, f.SpatialSpreadPct = 0, 0
		if c != f {
			t.Errorf("job %d stats diverge:\n clean %+v\n chaos %+v", id, c, f)
		}
		if !approx(cSpread, fSpread) || !approx(cPct, fPct) {
			t.Errorf("job %d spread diverges: %v/%v vs %v/%v", id, cSpread, cPct, fSpread, fPct)
		}
	}

	// The ambiguous faults (resets/truncation) must have produced real
	// duplicates that the server's dedup window absorbed — visible on
	// /metrics next to the redelivery and agent-health gauges.
	resp, err := http.Get(chaosURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(metricsText)
	for _, metric := range []string{
		"powserved_batches_duplicate_total",
		"powserved_redeliveries_total",
		`powserved_agent_breaker_state{agent="pipeline-agent"}`,
		`powserved_agent_retries{agent="pipeline-agent"}`,
		`powserved_agent_spill_depth{agent="pipeline-agent"}`,
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
	if dup := metricValue(t, text, "powserved_batches_duplicate_total"); dup == 0 {
		t.Error("no duplicates absorbed — reset/truncate faults did not exercise dedup")
	} else {
		t.Logf("server absorbed %d duplicate batches", dup)
	}
	if red := metricValue(t, text, "powserved_redeliveries_total"); red == 0 {
		t.Error("no redeliveries recorded on the server")
	}
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %q not found", name)
	return 0
}

func waitStoreIngested(t *testing.T, store *tsdb.Store, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for store.Ingested() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := store.Ingested(); got != want {
		t.Fatalf("store ingested %d, want %d", got, want)
	}
}
