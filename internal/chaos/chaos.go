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
//
// Beyond probabilistic faults, the proxy models network partitions:
// PartitionToServer drops every eligible request before the backend
// sees it, PartitionFromServer forwards the request but drops the
// response (the backend's effects stand, the client learns nothing),
// and PartitionBoth is a symmetric split — nothing crosses in either
// direction. The active mode can be flipped at runtime through the
// /chaosctl/partition endpoint, and /chaosctl/flap toggles a partition
// on and off at a fixed period to model a flapping link. Both control
// endpoints are served by the proxy itself and never forwarded — a
// failover drill can cut the primary off mid-run without restarting
// the proxy.
package chaos

import (
	"context"
	"encoding/json"
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
	// Partition is the initial asymmetric-partition mode: "",
	// PartitionToServer, or PartitionFromServer. Runtime changes go
	// through SetPartition or the /chaosctl/partition endpoint.
	Partition string
	// Seed seeds the injection PRNG. 0 means 1.
	Seed int64
	// Client is the forwarding client. nil means a 30 s-timeout client.
	Client *http.Client
	// Logger receives one structured record per injected fault and
	// partition flip, carrying the request's trace ID when the client
	// sent one. nil means discard.
	Logger *slog.Logger
}

// Asymmetric partition modes. A partition drops traffic in exactly one
// direction, which is how real network splits usually present.
const (
	// PartitionNone forwards both directions (no partition).
	PartitionNone = ""
	// PartitionToServer drops eligible requests before forwarding: the
	// backend never sees them, the client sees a dead connection.
	PartitionToServer = "to-server"
	// PartitionFromServer forwards eligible requests but drops the
	// response: the backend's effects stand, the client sees a reset —
	// every retry is a duplicate by construction.
	PartitionFromServer = "from-server"
	// PartitionBoth is a symmetric split: nothing crosses in either
	// direction. Mechanically the same cut point as to-server (the
	// request never leaves our side), but a drill's intent — total
	// isolation vs. one-way loss — reads from the mode name.
	PartitionBoth = "both"
)

func validPartition(mode string) bool {
	switch mode {
	case PartitionNone, PartitionToServer, PartitionFromServer, PartitionBoth:
		return true
	}
	return false
}

// Stats counts what the proxy did.
type Stats struct {
	Requests    int64  `json:"requests"`
	Forwarded   int64  `json:"forwarded"` // reached the backend (incl. reset/truncated)
	Clean       int64  `json:"clean"`     // relayed untouched
	Dropped     int64  `json:"dropped"`
	Injected5   int64  `json:"injected_5xx"`
	Resets      int64  `json:"resets"`
	Truncated   int64  `json:"truncated"`
	Delayed     int64  `json:"delayed"`
	Partitioned int64  `json:"partitioned"` // dropped by the active partition
	Partition   string `json:"partition"`   // active partition mode
	Flap        string `json:"flap"`        // "mode@period" while flapping, else ""
	Flaps       int64  `json:"flaps"`       // partition toggles performed by the flap loop
}

// Proxy is the fault-injecting reverse proxy. It implements
// http.Handler.
type Proxy struct {
	cfg    Config
	client *http.Client
	logger *slog.Logger

	rngMu sync.Mutex
	rng   *rand.Rand

	partMu    sync.Mutex
	partition string

	// flap state: while flapping, a goroutine toggles the partition
	// between flapMode and none every flapPeriod — the link that is
	// neither up nor down, the failure detector's worst input.
	flapMu     sync.Mutex
	flapStop   chan struct{}
	flapMode   string
	flapPeriod time.Duration
	flaps      atomic.Int64

	requests, forwarded, clean                     atomic.Int64
	dropped, injected5, resets, truncated, delayed atomic.Int64
	partitioned                                    atomic.Int64
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
	if !validPartition(cfg.Partition) {
		return nil, fmt.Errorf("chaos: unknown partition mode %q (want %q, %q, or %q)",
			cfg.Partition, PartitionNone, PartitionToServer, PartitionFromServer)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Proxy{cfg: cfg, client: cfg.Client, partition: cfg.Partition,
		logger: obs.Component(cfg.Logger, "chaos"),
		rng:    rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Partition returns the active asymmetric-partition mode.
func (p *Proxy) Partition() string {
	p.partMu.Lock()
	defer p.partMu.Unlock()
	return p.partition
}

// SetPartition switches the asymmetric-partition mode at runtime. It
// affects requests that start after the call; in-flight requests finish
// under the old mode.
func (p *Proxy) SetPartition(mode string) error {
	if !validPartition(mode) {
		return fmt.Errorf("chaos: unknown partition mode %q", mode)
	}
	p.partMu.Lock()
	prev := p.partition
	p.partition = mode
	p.partMu.Unlock()
	if prev != mode {
		p.logger.Info("partition mode changed",
			slog.String("from", prev), slog.String("to", mode))
	}
	return nil
}

// StartFlap begins toggling the partition between mode and none every
// period — a flapping link. A second call replaces the running flap.
func (p *Proxy) StartFlap(mode string, period time.Duration) error {
	if !validPartition(mode) || mode == PartitionNone {
		return fmt.Errorf("chaos: flap needs a partition mode (%q, %q, or %q)",
			PartitionToServer, PartitionFromServer, PartitionBoth)
	}
	if period <= 0 {
		return fmt.Errorf("chaos: flap period must be positive, got %v", period)
	}
	p.flapMu.Lock()
	p.stopFlapLocked()
	stop := make(chan struct{})
	p.flapStop, p.flapMode, p.flapPeriod = stop, mode, period
	p.flapMu.Unlock()
	p.logger.Info("flap started", slog.String("mode", mode), slog.Duration("period", period))
	go p.flapLoop(mode, period, stop)
	return nil
}

// StopFlap ends the flap loop (if any) and heals the partition.
func (p *Proxy) StopFlap() {
	p.flapMu.Lock()
	stopped := p.stopFlapLocked()
	p.flapMu.Unlock()
	if stopped {
		p.SetPartition(PartitionNone)
		p.logger.Info("flap stopped")
	}
}

// stopFlapLocked signals the flap goroutine; caller holds flapMu.
func (p *Proxy) stopFlapLocked() bool {
	if p.flapStop == nil {
		return false
	}
	close(p.flapStop)
	p.flapStop, p.flapMode, p.flapPeriod = nil, "", 0
	return true
}

func (p *Proxy) flapLoop(mode string, period time.Duration, stop chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	cut := false
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			cut = !cut
			next := PartitionNone
			if cut {
				next = mode
			}
			p.SetPartition(next)
			p.flaps.Add(1)
		}
	}
}

// flapDesc returns "mode@period" while flapping, "" otherwise.
func (p *Proxy) flapDesc() string {
	p.flapMu.Lock()
	defer p.flapMu.Unlock()
	if p.flapStop == nil {
		return ""
	}
	return fmt.Sprintf("%s@%s", p.flapMode, p.flapPeriod)
}

// Stats returns a snapshot of the injection counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Flap:        p.flapDesc(),
		Flaps:       p.flaps.Load(),
		Requests:    p.requests.Load(),
		Forwarded:   p.forwarded.Load(),
		Clean:       p.clean.Load(),
		Dropped:     p.dropped.Load(),
		Injected5:   p.injected5.Load(),
		Resets:      p.resets.Load(),
		Truncated:   p.truncated.Load(),
		Delayed:     p.delayed.Load(),
		Partitioned: p.partitioned.Load(),
		Partition:   p.Partition(),
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
	if strings.HasPrefix(r.URL.Path, "/chaosctl/") {
		// Proxy control plane: served locally, never forwarded, and
		// exempt from injection (chaos must not sever its own controls).
		switch r.URL.Path {
		case "/chaosctl/partition":
			p.handlePartitionCtl(w, r)
		case "/chaosctl/flap":
			p.handleFlapCtl(w, r)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, `{"error":"chaos: unknown control endpoint"}`+"\n")
		}
		return
	}
	p.requests.Add(1)
	eligible := p.cfg.PathPrefix == "" || strings.HasPrefix(r.URL.Path, p.cfg.PathPrefix)
	partition := p.Partition()

	if eligible && (partition == PartitionToServer || partition == PartitionBoth) {
		// Split on the client side (or a symmetric split): the request
		// never leaves "our" side of the partition. Deterministic,
		// unlike DropRate.
		p.partitioned.Add(1)
		p.logFault(r, "partition_"+strings.ReplaceAll(partition, "-", "_"))
		panic(http.ErrAbortHandler)
	}

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

	if eligible && partition == PartitionFromServer {
		// Asymmetric split, server side: the backend processed the
		// request, the response never crosses back. The client's retry
		// will be a duplicate by construction.
		p.partitioned.Add(1)
		p.logFault(r, "partition_from_server")
		panic(http.ErrAbortHandler)
	}

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

// handlePartitionCtl serves the runtime partition control endpoint:
// GET reports the active mode, POST (?mode= or JSON {"mode": ...})
// switches it.
func (p *Proxy) handlePartitionCtl(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch r.Method {
	case http.MethodGet:
		fmt.Fprintf(w, `{"partition":%q}`+"\n", p.Partition())
	case http.MethodPost:
		mode, ok := r.URL.Query()["mode"]
		var m string
		if ok && len(mode) > 0 {
			m = mode[0]
		} else {
			var body struct {
				Mode string `json:"mode"`
			}
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
				w.WriteHeader(http.StatusBadRequest)
				fmt.Fprintf(w, `{"error":"chaos: bad partition body: %v"}`+"\n", err)
				return
			}
			m = body.Mode
		}
		if err := p.SetPartition(m); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, `{"error":%q}`+"\n", err.Error())
			return
		}
		fmt.Fprintf(w, `{"partition":%q}`+"\n", m)
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
		io.WriteString(w, `{"error":"chaos: GET or POST"}`+"\n")
	}
}

// handleFlapCtl serves the flapping-link control endpoint:
// GET reports the flap state; POST ?mode=<partition>&period=<dur>
// starts (or retunes) the flap loop, and POST with period=0 or an
// empty mode stops it.
func (p *Proxy) handleFlapCtl(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch r.Method {
	case http.MethodGet:
		fmt.Fprintf(w, `{"flap":%q}`+"\n", p.flapDesc())
	case http.MethodPost:
		q := r.URL.Query()
		mode := q.Get("mode")
		periodStr := q.Get("period")
		if mode == "" && periodStr == "" {
			var body struct {
				Mode   string `json:"mode"`
				Period string `json:"period"`
			}
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
				w.WriteHeader(http.StatusBadRequest)
				fmt.Fprintf(w, `{"error":"chaos: bad flap body: %v"}`+"\n", err)
				return
			}
			mode, periodStr = body.Mode, body.Period
		}
		if mode == "" || periodStr == "" || periodStr == "0" {
			p.StopFlap()
			fmt.Fprintf(w, `{"flap":""}`+"\n")
			return
		}
		period, err := time.ParseDuration(periodStr)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, `{"error":"chaos: bad flap period %q: %v"}`+"\n", periodStr, err)
			return
		}
		if err := p.StartFlap(mode, period); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, `{"error":%q}`+"\n", err.Error())
			return
		}
		fmt.Fprintf(w, `{"flap":%q}`+"\n", p.flapDesc())
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
		io.WriteString(w, `{"error":"chaos: GET or POST"}`+"\n")
	}
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
			p.StopFlap()
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
