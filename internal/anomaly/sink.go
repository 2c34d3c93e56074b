package anomaly

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower/internal/obs"
	"hpcpower/internal/retry"
)

// Sink delivers alert events somewhere. Send must never block the
// caller (it runs on the ingest path): sinks queue internally and
// shed under sustained backlog rather than stall ingest.
type Sink interface {
	Name() string
	Send(Event)
	Health() SinkHealth
	Close()
}

// SinkHealth is one sink's delivery health, surfaced in /readyz and as
// powserved_alert_sink_* metrics.
type SinkHealth struct {
	Name      string `json:"name"`
	Healthy   bool   `json:"healthy"`
	Delivered int64  `json:"delivered"`
	Errors    int64  `json:"errors"`
	Retries   int64  `json:"retries"`
	Dropped   int64  `json:"dropped"`
	Queued    int    `json:"queued"`
	LastError string `json:"last_error,omitempty"`
}

// LogSink writes every event as a structured slog line, severity-mapped
// (critical → Error, warning → Warn, info → Info), with the trace ID of
// the triggering batch — the last hop of the one-grep pipeline.
type LogSink struct {
	logger    *slog.Logger
	delivered atomic.Int64
}

// NewLogSink returns a sink logging to logger (nil discards).
func NewLogSink(logger *slog.Logger) *LogSink {
	return &LogSink{logger: obs.Component(logger, "alert")}
}

func (s *LogSink) Name() string { return "log" }

func (s *LogSink) Send(ev Event) {
	lvl := slog.LevelInfo
	switch {
	case ev.Type == EventResolve:
		lvl = slog.LevelInfo
	case ev.Severity == SeverityCritical:
		lvl = slog.LevelError
	case ev.Severity == SeverityWarning:
		lvl = slog.LevelWarn
	}
	s.logger.Log(nil, lvl, "alert "+ev.Type,
		slog.String("rule", ev.Rule),
		slog.String("detector", ev.Detector),
		slog.String("severity", ev.Severity),
		slog.Uint64("job", ev.Job),
		slog.Int("node", ev.Node),
		slog.Int64("unix", ev.Unix),
		slog.Float64("value", ev.Value),
		slog.Float64("threshold", ev.Threshold),
		slog.String("trace_id", ev.Trace),
		slog.Uint64("seq", ev.Seq))
	s.delivered.Add(1)
}

func (s *LogSink) Health() SinkHealth {
	return SinkHealth{Name: s.Name(), Healthy: true, Delivered: s.delivered.Load()}
}

func (s *LogSink) Close() {}

// WebhookConfig parameterizes a WebhookSink.
type WebhookConfig struct {
	// URL receives one POST per event with the Event as the JSON body.
	URL string
	// Client is the HTTP client. Nil means a 5 s-timeout default.
	Client *http.Client
	// MaxPending bounds the delivery queue; events beyond it are
	// dropped (counted). 0 means 256.
	MaxPending int
	// MaxAttempts per event, including the first. 0 means 6.
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the exponential backoff with full
	// jitter between attempts — the shipper's retry discipline. A
	// Retry-After response header overrides the computed delay
	// (jittered over [hint/2, hint]). 0 means 50 ms / 5 s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold marks the sink unhealthy after this many
	// consecutive delivery failures. 0 means 5.
	BreakerThreshold int
	// Seed makes the jitter deterministic in tests. 0 seeds from the
	// queue identity.
	Seed int64
	// Logger receives delivery-failure debug lines. Nil discards.
	Logger *slog.Logger
}

// WebhookSink POSTs events to an HTTP endpoint from a single background
// goroutine with at-least-once-effort semantics: bounded queue,
// exponential backoff with full jitter, Retry-After honored, and a
// consecutive-failure health breaker — the discipline the shipper
// applies to sample batches, from the same internal/retry kit.
type WebhookSink struct {
	cfg    WebhookConfig
	client *http.Client
	queue  chan Event
	ctx    context.Context // done = Close was called
	stop   context.CancelFunc
	wg     sync.WaitGroup
	logger *slog.Logger

	delivered atomic.Int64
	errors    atomic.Int64
	retries   atomic.Int64
	dropped   atomic.Int64
	consec    atomic.Int64
	lastErr   atomic.Pointer[string]
}

// NewWebhookSink starts the delivery goroutine.
func NewWebhookSink(cfg WebhookConfig) (*WebhookSink, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("anomaly: webhook sink needs a URL")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 256
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 6
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	cfg.Logger = obs.Component(cfg.Logger, "alert_webhook")
	s := &WebhookSink{
		cfg:    cfg,
		client: cfg.Client,
		queue:  make(chan Event, cfg.MaxPending),
		logger: cfg.Logger,
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.run()
	return s, nil
}

func (s *WebhookSink) Name() string { return "webhook" }

// Send enqueues without blocking; a full queue drops the event.
func (s *WebhookSink) Send(ev Event) {
	select {
	case s.queue <- ev:
	default:
		s.dropped.Add(1)
	}
}

func (s *WebhookSink) run() {
	defer s.wg.Done()
	seed := s.cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	for {
		select {
		case <-s.ctx.Done():
			return
		case ev := <-s.queue:
			s.deliver(rng, ev)
		}
	}
}

// deliver attempts one event with retries; exhausting attempts counts
// one error and moves on (the event remains in the server's ring).
func (s *WebhookSink) deliver(rng *rand.Rand, ev Event) {
	body, err := json.Marshal(ev)
	if err != nil {
		s.fail(fmt.Sprintf("encoding event %d: %v", ev.Seq, err))
		return
	}
	backoff := retry.Backoff{Base: s.cfg.BaseBackoff, Max: s.cfg.MaxBackoff}
	for attempt := 0; attempt < s.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
		}
		retryAfter, err := s.post(body, ev)
		if err == nil {
			s.delivered.Add(1)
			s.consec.Store(0)
			return
		}
		s.logger.Debug("webhook delivery failed",
			slog.Uint64("seq", ev.Seq),
			slog.Int("attempt", attempt+1),
			slog.String("error", err.Error()))
		if attempt == s.cfg.MaxAttempts-1 {
			s.fail(err.Error())
			return
		}
		if retry.Sleep(s.ctx, backoff.Delay(rng, attempt, retryAfter)) != nil {
			return
		}
	}
}

// post runs one HTTP attempt; a Retry-After header on a non-2xx
// response is returned as a delay hint.
func (s *WebhookSink) post(body []byte, ev Event) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.cfg.URL, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ev.Trace != "" {
		req.Header.Set("X-Trace-Id", ev.Trace)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return 0, nil
	}
	return retry.RetryAfter(resp.Header), fmt.Errorf("webhook: %s", resp.Status)
}

func (s *WebhookSink) fail(msg string) {
	s.errors.Add(1)
	s.consec.Add(1)
	s.lastErr.Store(&msg)
}

func (s *WebhookSink) Health() SinkHealth {
	h := SinkHealth{
		Name:      s.Name(),
		Healthy:   s.consec.Load() < int64(s.cfg.BreakerThreshold),
		Delivered: s.delivered.Load(),
		Errors:    s.errors.Load(),
		Retries:   s.retries.Load(),
		Dropped:   s.dropped.Load(),
		Queued:    len(s.queue),
	}
	if p := s.lastErr.Load(); p != nil {
		h.LastError = *p
	}
	return h
}

// Close stops the delivery goroutine; queued events are dropped
// (counted) — alerting is best-effort delivery over an authoritative
// ring.
func (s *WebhookSink) Close() {
	s.stop()
	s.wg.Wait()
	s.dropped.Add(int64(len(s.queue)))
}
