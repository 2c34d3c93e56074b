package anomaly

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLogSink(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	s := NewLogSink(logger)
	defer s.Close()
	s.Send(Event{Type: EventFire, Rule: "flatline", Severity: SeverityCritical,
		Job: 7, Node: 2, Unix: 100, Trace: "tr-123", Seq: 1})
	s.Send(Event{Type: EventResolve, Rule: "flatline", Severity: SeverityCritical,
		Job: 7, Node: 2, Unix: 200, Seq: 2})
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !bytes.Contains([]byte(out), []byte(`"trace_id":"tr-123"`)) {
		t.Fatalf("log line missing trace id: %s", out)
	}
	if !bytes.Contains([]byte(out), []byte(`"level":"ERROR"`)) {
		t.Fatalf("critical fire not logged at error level: %s", out)
	}
	h := s.Health()
	if !h.Healthy || h.Delivered != 2 {
		t.Fatalf("health = %+v", h)
	}
	// Nil logger discards without panicking.
	NewLogSink(nil).Send(Event{Type: EventFire})
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestWebhookSinkDelivers(t *testing.T) {
	var got atomic.Int64
	var lastTrace atomic.Pointer[string]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("bad body: %v", err)
		}
		tr := r.Header.Get("X-Trace-Id")
		lastTrace.Store(&tr)
		got.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	s, err := NewWebhookSink(WebhookConfig{URL: srv.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Send(Event{Seq: 1, Type: EventFire, Job: 5, Trace: "tr-9"})
	// Delivered is counted once the response is back, after the receiver
	// has seen the request: wait on the count, not on the receiver.
	waitFor(t, "delivery", func() bool { return s.Health().Delivered == 1 })
	if tr := lastTrace.Load(); got.Load() != 1 || tr == nil || *tr != "tr-9" {
		t.Fatalf("receiver saw %d requests, trace header %v, want one with tr-9", got.Load(), tr)
	}
	if h := s.Health(); !h.Healthy || h.Errors != 0 {
		t.Fatalf("health = %+v", h)
	}
}

func TestWebhookSinkRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	s, err := NewWebhookSink(WebhookConfig{
		URL: srv.URL, Seed: 1,
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Send(Event{Seq: 1, Type: EventFire})
	waitFor(t, "retried delivery", func() bool { return s.Health().Delivered == 1 })
	h := s.Health()
	if h.Retries < 2 || h.Errors != 0 || !h.Healthy {
		t.Fatalf("health after retries = %+v", h)
	}
}

func TestWebhookSinkHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstAttempt, secondAttempt atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			firstAttempt.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			secondAttempt.Store(time.Now().UnixNano())
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer srv.Close()
	s, err := NewWebhookSink(WebhookConfig{
		URL: srv.URL, Seed: 1,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Send(Event{Seq: 1})
	waitFor(t, "delivery after Retry-After", func() bool { return s.Health().Delivered == 1 })
	gap := time.Duration(secondAttempt.Load() - firstAttempt.Load())
	// The hint is jittered over [hint/2, hint]: far above the millisecond
	// backoff the config would otherwise use.
	if gap < 400*time.Millisecond {
		t.Fatalf("Retry-After ignored: retried after %v", gap)
	}
}

func TestWebhookSinkBreakerOpensOnConsecutiveFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer srv.Close()
	s, err := NewWebhookSink(WebhookConfig{
		URL: srv.URL, Seed: 1, MaxAttempts: 2,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		BreakerThreshold: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		s.Send(Event{Seq: uint64(i + 1)})
	}
	waitFor(t, "breaker to open", func() bool { return !s.Health().Healthy })
	h := s.Health()
	if h.Errors < 3 || h.LastError == "" {
		t.Fatalf("health = %+v", h)
	}
}

func TestWebhookSinkShedsWhenQueueFull(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	s, err := NewWebhookSink(WebhookConfig{URL: srv.URL, Seed: 1, MaxPending: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One in flight, two queued, the rest shed.
	for i := 0; i < 10; i++ {
		s.Send(Event{Seq: uint64(i + 1)})
	}
	waitFor(t, "shedding", func() bool { return s.Health().Dropped >= 7 })
	close(release)
	s.Close()
	if h := s.Health(); h.Dropped < 7 {
		t.Fatalf("dropped = %d, want >= 7", h.Dropped)
	}
}

func TestWebhookSinkNeedsURL(t *testing.T) {
	if _, err := NewWebhookSink(WebhookConfig{}); err == nil {
		t.Fatal("empty URL accepted")
	}
}
