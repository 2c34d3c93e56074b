package obs

import (
	"bytes"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total")
	r.GaugeFunc("test_live", func() float64 { return 7 })
	c.Add(3)
	c.Inc()

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter\ntest_ops_total 4\n",
		"# TYPE test_live gauge\ntest_live 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestVecExposition(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_requests_total", "endpoint")
	r.AddCollector(func(e *Exposition) { e.GaugeL("test_state", "agent", "a1", 1) })
	cv.With("ingest").Add(2)
	cv.With("query").Add(1)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`test_requests_total{endpoint="ingest"} 2`,
		`test_requests_total{endpoint="query"} 1`,
		`test_state{agent="a1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, even with several children.
	if n := strings.Count(out, "# TYPE test_requests_total counter"); n != 1 {
		t.Errorf("want exactly one TYPE line for the vec family, got %d", n)
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup_total")
	r.Counter("dup_total")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		h.Observe(0.005) // all in the first bucket
	}
	h.Observe(0.5) // third bucket
	h.Observe(5)   // +Inf bucket

	if got := h.Count(); got != 102 {
		t.Fatalf("Count = %d, want 102", got)
	}
	wantSum := 100*0.005 + 0.5 + 5
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-9 {
		t.Fatalf("Sum = %g, want %g", got, wantSum)
	}
	if got := h.Max(); got != 5 {
		t.Fatalf("Max = %g, want 5", got)
	}
	// p50 lands mid-first-bucket; interpolation keeps it under the bound.
	if q := h.Quantile(0.5); q <= 0 || q > 0.01 {
		t.Errorf("p50 = %g, want in (0, 0.01]", q)
	}
	// p999 lands in +Inf and saturates at the top finite bound.
	if q := h.Quantile(0.999); q != 1 {
		t.Errorf("p999 = %g, want saturation at 1", q)
	}
	if q := h.Quantile(0.5); q > h.Quantile(0.99) {
		t.Errorf("quantiles not monotone: p50 %g > p99 %g", h.Quantile(0.5), h.Quantile(0.99))
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(2)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_req_seconds", "endpoint", []float64{0.1, 1})
	v.With("ingest").Observe(0.05)
	v.With("ingest").Observe(0.5)
	v.With("query").Observe(2)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`test_req_seconds_bucket{endpoint="ingest",le="0.1"} 1`,
		`test_req_seconds_bucket{endpoint="ingest",le="+Inf"} 2`,
		`test_req_seconds_bucket{endpoint="query",le="+Inf"} 1`,
		`test_req_seconds_count{endpoint="ingest"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

// TestConcurrentObserveAndWrite is the race-detector gate for the
// lock-free hot path: many goroutines Observe while others scrape. Run
// with -race in CI (make obs-check).
func TestConcurrentObserveAndWrite(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hot_seconds", DefaultLatencyBuckets)
	c := r.Counter("test_hot_total")
	v := r.HistogramVec("test_hot_vec_seconds", "lane", []float64{0.001, 0.01, 0.1})

	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := string(rune('a' + w%3))
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i%100) / 1e4)
				c.Inc()
				v.With(lane).Observe(float64(i%10) / 1e3)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			r.WritePrometheus(&buf)
			if err := LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
				t.Errorf("mid-flight exposition not lint-clean: %v", err)
				return
			}
		}
	}()
	// Wait for the writers, then stop the scraper.
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	for i := 0; i < writers*2; i++ {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("histogram Count = %d, want %d", got, writers*perWriter)
	}
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"missing TYPE", "foo_total 1\n", "no preceding # TYPE"},
		{"duplicate TYPE", "# TYPE a counter\n# TYPE a counter\na 1\n", "duplicate # TYPE"},
		{"duplicate series", "# TYPE a counter\na 1\na 2\n", "duplicate series"},
		{"bad value", "# TYPE a counter\na one\n", "non-numeric"},
		{
			"non-monotone buckets",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
			"not monotone",
		},
		{
			"missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
			`le="+Inf"`,
		},
		{
			"count mismatch",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
			"_count 4 != le=\"+Inf\" bucket 5",
		},
	}
	for _, tc := range cases {
		err := LintExposition(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: lint accepted invalid exposition", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 1; i <= 6; i++ {
		ring.Record(TraceEvent{Trace: "t", Seq: int64(i), Stage: "ingest"})
	}
	got := ring.Recent(0)
	if len(got) != 4 {
		t.Fatalf("Recent returned %d events, want 4 (capacity)", len(got))
	}
	// Newest first: 6,5,4,3.
	for i, want := range []int64{6, 5, 4, 3} {
		if got[i].Seq != want {
			t.Errorf("Recent[%d].Seq = %d, want %d", i, got[i].Seq, want)
		}
	}
	ring.Record(TraceEvent{}) // no trace ID: dropped
	if n := len(ring.Recent(0)); n != 4 {
		t.Errorf("untraced event was recorded (len %d)", n)
	}

	srv := httptest.NewServer(ring.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?n=2&trace=t")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if !strings.Contains(body.String(), `"stage":"ingest"`) {
		t.Errorf("handler body lacks events: %s", body.String())
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace IDs %q, %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("two trace IDs collided: %q", a)
	}
}

func TestLoggerLevelsAndComponents(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(LogConfig{Level: slog.LevelInfo, Format: "json", Output: &buf})
	serveLog := Component(lg, "serve")
	serveLog.Debug("hidden")
	serveLog.Info("visible", slog.String("trace_id", "abc"))
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("debug record leaked at info level: %s", out)
	}
	if !strings.Contains(out, `"component":"serve"`) || !strings.Contains(out, `"trace_id":"abc"`) {
		t.Errorf("structured attrs missing: %s", out)
	}

	if lvl, err := ParseLevel("warn"); err != nil || lvl != slog.LevelWarn {
		t.Errorf("ParseLevel(warn) = %v, %v", lvl, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}

	// Discard logger must be usable and silent.
	Component(nil, "wal").Error("dropped")
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_pause_seconds_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %s:\n%s", want, out)
		}
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestDebugMux(t *testing.T) {
	r := NewRegistry()
	r.Counter("dbg_total").Inc()
	ring := NewTraceRing(8)
	ring.Record(TraceEvent{Trace: "deadbeef", Stage: "ingest"})
	srv := httptest.NewServer(DebugMux(r, ring))
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":             "dbg_total 1",
		"/debug/traces/recent": "deadbeef",
		"/debug/pprof/":        "profiles",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(body.String(), want) {
			t.Errorf("%s: body lacks %q", path, want)
		}
	}
}
