// Package chaos is a fault-injecting HTTP reverse proxy for exercising
// the telemetry delivery path: it sits between a shipper and powserved
// and injects, at configurable rates, the failures a production network
// actually produces. The injected faults fall in two classes:
//
//   - pre-forward (the server never sees the request): silent drops and
//     injected 502s — these test pure retry;
//   - post-forward (the server processed the request but the client never
//     learns the outcome): connection resets and response truncation —
//     these create *ambiguous* failures whose retries arrive as
//     duplicates, the exact case idempotent ingest exists for.
//
// Injection is driven by a seeded PRNG, so a chaos run is reproducible.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower/internal/obs"
)

// Config parameterizes the proxy. The rates are independent
// probabilities in [0, 1]: DropRate and Err5xxRate are rolled before
// forwarding (cumulatively, on one draw), ResetRate and TruncateRate
// after the backend replied (on a second draw).
type Config struct {
	// Target is the backend base URL, e.g. http://127.0.0.1:8080.
	Target string
	// DropRate silently closes the connection without forwarding.
	DropRate float64
	// Err5xxRate answers 502 without forwarding.
	Err5xxRate float64
	// ResetRate forwards, then closes the connection without relaying the
	// response (the backend's effects stand; the client sees a reset).
	ResetRate float64
	// TruncateRate forwards, then relays only half the response body
	// under the full Content-Length (the client sees unexpected EOF).
	TruncateRate float64
	// Latency (± Jitter, uniform) is added before forwarding.
	Latency time.Duration
	Jitter  time.Duration
	// PathPrefix restricts injection to matching request paths; "" means
	// every path. Non-matching requests are always forwarded cleanly.
	PathPrefix string
	// Seed seeds the injection PRNG. 0 means 1.
	Seed int64
	// Client is the forwarding client. nil means a 30 s-timeout client.
	Client *http.Client
	// Logger receives one structured record per injected fault, carrying
	// the request's trace ID when the client sent one. nil means discard.
	Logger *slog.Logger
}

// Stats counts what the proxy did.
type Stats struct {
	Requests  int64 `json:"requests"`
	Forwarded int64 `json:"forwarded"` // reached the backend (incl. reset/truncated)
	Clean     int64 `json:"clean"`     // relayed untouched
	Dropped   int64 `json:"dropped"`
	Injected5 int64 `json:"injected_5xx"`
	Resets    int64 `json:"resets"`
	Truncated int64 `json:"truncated"`
	Delayed   int64 `json:"delayed"`
}

// Proxy is the fault-injecting reverse proxy. It implements
// http.Handler.
type Proxy struct {
	cfg    Config
	client *http.Client
	logger *slog.Logger

	rngMu sync.Mutex
	rng   *rand.Rand

	requests, forwarded, clean                     atomic.Int64
	dropped, injected5, resets, truncated, delayed atomic.Int64
}

// New validates cfg and returns a Proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Target == "" {
		return nil, errors.New("chaos: no target")
	}
	for _, r := range []float64{cfg.DropRate, cfg.Err5xxRate, cfg.ResetRate, cfg.TruncateRate} {
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("chaos: rate %v out of [0,1]", r)
		}
	}
	if cfg.DropRate+cfg.Err5xxRate > 1 {
		return nil, fmt.Errorf("chaos: drop+5xx rates sum to %v > 1", cfg.DropRate+cfg.Err5xxRate)
	}
	if cfg.ResetRate+cfg.TruncateRate > 1 {
		return nil, fmt.Errorf("chaos: reset+truncate rates sum to %v > 1", cfg.ResetRate+cfg.TruncateRate)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Proxy{cfg: cfg, client: cfg.Client,
		logger: obs.Component(cfg.Logger, "chaos"),
		rng:    rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Stats returns a snapshot of the injection counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Requests:  p.requests.Load(),
		Forwarded: p.forwarded.Load(),
		Clean:     p.clean.Load(),
		Dropped:   p.dropped.Load(),
		Injected5: p.injected5.Load(),
		Resets:    p.resets.Load(),
		Truncated: p.truncated.Load(),
		Delayed:   p.delayed.Load(),
	}
}

func (p *Proxy) roll() float64 {
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return p.rng.Float64()
}

func (p *Proxy) jitteredLatency() time.Duration {
	if p.cfg.Latency <= 0 {
		return 0
	}
	d := p.cfg.Latency
	if p.cfg.Jitter > 0 {
		p.rngMu.Lock()
		d += time.Duration(p.rng.Int63n(2*int64(p.cfg.Jitter)+1)) - p.cfg.Jitter
		p.rngMu.Unlock()
	}
	if d < 0 {
		d = 0
	}
	return d
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	eligible := p.cfg.PathPrefix == "" || strings.HasPrefix(r.URL.Path, p.cfg.PathPrefix)
	if eligible {
		if d := p.jitteredLatency(); d > 0 {
			p.delayed.Add(1)
			time.Sleep(d)
		}
		pre := p.roll()
		switch {
		case pre < p.cfg.DropRate:
			// Silent drop: the backend never sees the request; the client
			// sees a closed connection. ErrAbortHandler closes without a
			// response and without log noise.
			p.dropped.Add(1)
			p.logFault(r, "drop")
			panic(http.ErrAbortHandler)
		case pre < p.cfg.DropRate+p.cfg.Err5xxRate:
			p.injected5.Add(1)
			p.logFault(r, "injected_5xx")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadGateway)
			io.WriteString(w, `{"error":"chaos: injected 502"}`)
			return
		}
	}

	resp, err := p.forward(r)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintf(w, `{"error":"chaos: backend: %v"}`, err)
		return
	}
	defer resp.Body.Close()
	p.forwarded.Add(1)

	if eligible {
		post := p.roll()
		switch {
		case post < p.cfg.ResetRate:
			// The backend already processed the request; the client learns
			// nothing. Its retry is a duplicate by construction.
			p.resets.Add(1)
			p.logFault(r, "reset")
			panic(http.ErrAbortHandler)
		case post < p.cfg.ResetRate+p.cfg.TruncateRate:
			if p.truncate(w, resp) {
				p.logFault(r, "truncate")
				return
			}
			// Body too short to truncate meaningfully: fall through clean.
		}
	}

	copyHeader(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	p.clean.Add(1)
}

// logFault records one injected fault, keyed by the shipper's trace ID
// when the request carried one — the link between a chaos injection and
// the retry it forces.
func (p *Proxy) logFault(r *http.Request, kind string) {
	p.logger.Debug("fault injected",
		slog.String("kind", kind),
		slog.String("path", r.URL.Path),
		slog.String("trace_id", r.Header.Get(obs.HeaderTraceID)))
}

// truncate relays the status and headers but only half the body under
// the original Content-Length, then aborts the connection so the client
// sees an unexpected EOF. Returns false when the body is too short.
func (p *Proxy) truncate(w http.ResponseWriter, resp *http.Response) bool {
	body, err := io.ReadAll(resp.Body)
	if err != nil || len(body) < 2 {
		if err == nil && len(body) > 0 {
			// Deliver what we read — this path declined to inject.
			copyHeader(w.Header(), resp.Header)
			w.WriteHeader(resp.StatusCode)
			w.Write(body)
			p.clean.Add(1)
			return true
		}
		return false
	}
	p.truncated.Add(1)
	copyHeader(w.Header(), resp.Header)
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(resp.StatusCode)
	w.Write(body[:len(body)/2])
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

// forward re-issues the request against the target.
func (p *Proxy) forward(r *http.Request) (*http.Response, error) {
	url := strings.TrimSuffix(p.cfg.Target, "/") + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		return nil, err
	}
	copyHeader(req.Header, r.Header)
	req.Header.Del("Connection")
	return p.client.Do(req)
}

func copyHeader(dst, src http.Header) {
	for k, vv := range src {
		dst[k] = append([]string(nil), vv...)
	}
}

// ListenAndServe runs the proxy on addr until ctx is cancelled, then
// shuts down. Mirrors serve.Server.ListenAndServe so cmd/powchaos and
// cmd/powserved drive the same way.
func (p *Proxy) ListenAndServe(ctx context.Context, addr string) (boundAddr string, done <-chan error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("chaos: %w", err)
	}
	hs := &http.Server{Handler: p, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() {
		serveErr := hs.Serve(ln)
		if errors.Is(serveErr, http.ErrServerClosed) {
			serveErr = nil
		}
		errc <- serveErr
	}()
	result := make(chan error, 1)
	go func() {
		select {
		case <-ctx.Done():
			shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shutErr := hs.Shutdown(shutCtx)
			if serveErr := <-errc; serveErr != nil {
				shutErr = serveErr
			}
			result <- shutErr
		case serveErr := <-errc:
			result <- serveErr
		}
	}()
	return ln.Addr().String(), result, nil
}
