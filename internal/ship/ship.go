// Package ship is the fault-tolerant delivery side of the online
// telemetry path: a Shipper takes the wire batches a monitoring agent
// collects and gets them to a powserved ingest endpoint through an
// unreliable network.
//
// Delivery contract — at-least-once transport, exactly-once analytics:
//
//   - every batch is stamped with the agent's ID and a monotonic
//     sequence number; the server deduplicates on (AgentID, Seq), so
//     re-sending after an ambiguous failure (the request may or may not
//     have been counted) is always safe;
//   - failed deliveries retry with exponential backoff and full jitter,
//     honoring (and jittering) the server's Retry-After hint on 503/429
//     backpressure; a 429 over_capacity admission shed and a 503
//     storage-degraded answer are waited out in place — the server is
//     healthy and authoritative, so they neither trip the breaker nor
//     rotate the target;
//   - pending batches wait in a bounded spill buffer (FIFO ring) so an
//     outage shorter than the buffer horizon loses nothing; beyond it the
//     oldest batches are evicted and counted, never silently dropped;
//   - a circuit breaker (closed → open → half-open) stops hammering a
//     dead server: after Threshold consecutive failures sends fail fast
//     for Cooldown, then a single probe decides re-close vs. re-open;
//   - with multiple targets (Config.URLs) the shipper fails over: each
//     target has its own breaker, a dead or fenced target rotates
//     delivery to the next one, and while away from the preferred
//     first target a periodic probe fails back as soon as it recovers.
//
// Failover is replication-aware. A server that answers 409 with
// X-Repl-Fenced (a deposed primary) or 503 with X-Repl-Role: follower
// (a warm standby) is healthy but authoritatively not the primary —
// those answers rotate the target immediately instead of tripping the
// breaker or poisoning the batch. The shipper also gossips the highest
// replication epoch it has seen (X-Repl-Epoch) on every delivery, so a
// stale primary learns of its deposition from the first agent that
// reaches it.
//
// The Shipper self-reports its breaker state, cumulative retries, and
// spill depth via request headers, which the server republishes on
// /metrics — one scrape point shows the whole fleet's delivery health.
package ship

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower/internal/obs"
	"hpcpower/internal/retry"
	"hpcpower/internal/trace"
)

// Config parameterizes a Shipper.
type Config struct {
	// URL is the full ingest endpoint, e.g. http://host:8080/v1/samples.
	// Ignored when URLs is set.
	URL string
	// URLs is the failover list of ingest endpoints, most-preferred
	// first. Empty means []string{URL}. Delivery sticks to one target
	// until it dies (breaker opens) or disavows the primary role
	// (fenced / follower answer), then rotates to the next; a probe
	// every FailbackEvery returns to URLs[0] once it recovers.
	URLs []string
	// AgentID identifies this shipper to the server's dedup index.
	AgentID string
	// Client is the HTTP client. nil means a client with a 10 s timeout.
	Client *http.Client
	// MaxPending bounds the spill buffer (batches). 0 means 256. When
	// full, Enqueue evicts the oldest non-inflight batch.
	MaxPending int
	// MaxAttempts bounds delivery attempts per batch. 0 means unlimited
	// (retry until the context is cancelled).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff ceiling. 0 means 50 ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff (and the honored Retry-After). 0 means 5 s.
	MaxBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that trips the
	// circuit breaker. 0 means 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// allowing a half-open probe. 0 means 2 s.
	BreakerCooldown time.Duration
	// FailbackEvery is how often, while delivering to a non-preferred
	// target, one delivery is routed to the preferred URLs[0] as a
	// failback probe. 0 means 3 s.
	FailbackEvery time.Duration
	// Seed seeds the jitter source; 0 means 1 (deterministic by default —
	// distinct agents should pass distinct seeds).
	Seed int64
	// Observe, when set, is called after every delivery attempt with the
	// attempt latency, HTTP status (0 on transport error), and error.
	Observe func(d time.Duration, status int, err error)
	// Logger receives structured delivery events (send, retry, failover)
	// carrying the batch's trace ID. nil means discard.
	Logger *slog.Logger
}

// Stats is a snapshot of the shipper's delivery counters.
type Stats struct {
	Enqueued        int64  // batches handed to Enqueue
	ShippedBatches  int64  // batches acknowledged with 202
	ShippedSamples  int64  // samples in acknowledged batches
	Duplicates      int64  // 202s the server flagged as already counted
	Retries         int64  // failed attempts that were retried
	Redeliveries    int64  // batches that needed more than one attempt
	EvictedBatches  int64  // batches evicted from a full spill buffer
	DroppedSamples  int64  // samples lost to eviction or attempt exhaustion
	ExhaustedBatch  int64  // batches dropped after MaxAttempts
	PoisonedBatches int64  // batches rejected 4xx (never retried)
	DegradedWaits   int64  // storage-degraded 503s waited out in place
	ShedWaits       int64  // over-capacity 429s waited out in place
	BreakerOpens    int64  // closed→open transitions, summed over targets
	HintRoutes      int64  // rotations routed directly by a primary hint
	Failovers       int64  // switches away from the current target
	Failbacks       int64  // returns to the preferred target
	Pending         int    // batches currently in the spill buffer
	Target          string // URL currently receiving deliveries
	Breaker         string // current target: "closed", "half-open", "open"
	Epoch           uint64 // highest replication epoch observed
}

type batchEntry struct {
	seq        uint64
	samples    []trace.PowerSample
	redelivery bool
	inflight   bool
	// trace is the batch's delivery trace ID, minted at Enqueue and sent
	// as X-Trace-Id on every attempt — the key that links shipper retry
	// logs to the server's ingest, WAL, and follower-apply records.
	trace string
}

// Shipper delivers sample batches with retries, spill buffering, and a
// circuit breaker. Enqueue is safe to call concurrently with one
// running Flush; Flush itself must not run concurrently with another
// Flush on the same Shipper.
type Shipper struct {
	cfg    Config
	client *http.Client
	logger *slog.Logger

	mu      sync.Mutex
	pending []*batchEntry // FIFO: pending[0] is next to ship
	seq     uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	// Failover state: targets is the fixed endpoint list, cur indexes
	// the one currently receiving deliveries, failbackAt schedules the
	// next probe of the preferred targets[0] while cur != 0.
	tmu        sync.Mutex
	targets    []*target
	cur        int
	failbackAt time.Time

	enqueued, shippedBatches, shippedSamples   atomic.Int64
	duplicates, retries, redeliveries          atomic.Int64
	evicted, droppedSamples, exhausted, poison atomic.Int64
	degradedWaits, shedWaits                   atomic.Int64
	failovers, failbacks, hintRoutes           atomic.Int64
	maxEpoch                                   atomic.Uint64
}

// findTarget maps a primary-hint base URL to a configured target: the
// hint names the node, the target URL is its ingest endpoint, so the
// target must extend the hint (e.g. hint http://10.0.0.2:8080 matches
// target http://10.0.0.2:8080/v1/samples). -1 when no target matches —
// the hint may name a node this shipper was never configured with.
func (s *Shipper) findTarget(hint string) int {
	if hint == "" {
		return -1
	}
	base := strings.TrimRight(hint, "/")
	for _, t := range s.targets {
		if t.url == base || strings.HasPrefix(t.url, base+"/") {
			return t.idx
		}
	}
	return -1
}

// target is one ingest endpoint in the failover list. Each target gets
// its own circuit breaker so one dead server's failure streak doesn't
// charge against the others' health.
type target struct {
	idx     int
	url     string
	breaker breaker
}

// New returns a Shipper. Defaults are applied for zero Config fields.
func New(cfg Config) *Shipper {
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 256
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.FailbackEvery <= 0 {
		cfg.FailbackEvery = 3 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.URLs) == 0 {
		cfg.URLs = []string{cfg.URL}
	}
	s := &Shipper{
		cfg:    cfg,
		client: cfg.Client,
		logger: obs.Component(cfg.Logger, "ship"),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	for i, u := range cfg.URLs {
		t := &target{idx: i, url: u}
		t.breaker.threshold = cfg.BreakerThreshold
		t.breaker.cooldown = cfg.BreakerCooldown
		s.targets = append(s.targets, t)
	}
	return s
}

// Enqueue stamps the batch with the next sequence number and appends it
// to the spill buffer, evicting the oldest non-inflight batch if full.
// It returns the assigned sequence number. The samples slice is retained
// until delivered — callers must not mutate it afterwards.
func (s *Shipper) Enqueue(samples []trace.PowerSample) uint64 {
	traceID := obs.NewTraceID()
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.pending = append(s.pending, &batchEntry{seq: seq, samples: samples, trace: traceID})
	if len(s.pending) > s.cfg.MaxPending {
		// Oldest-first eviction, skipping an entry the delivery loop is
		// currently sending (it is about to leave the buffer anyway).
		for i, e := range s.pending {
			if !e.inflight {
				s.evicted.Add(1)
				s.droppedSamples.Add(int64(len(e.samples)))
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	s.enqueued.Add(1)
	return seq
}

// Pending returns the spill-buffer depth in batches.
func (s *Shipper) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Stats returns a snapshot of the delivery counters.
func (s *Shipper) Stats() Stats {
	s.tmu.Lock()
	cur := s.targets[s.cur]
	s.tmu.Unlock()
	var opens int64
	for _, t := range s.targets {
		opens += t.breaker.opens.Load()
	}
	return Stats{
		Enqueued:        s.enqueued.Load(),
		ShippedBatches:  s.shippedBatches.Load(),
		ShippedSamples:  s.shippedSamples.Load(),
		Duplicates:      s.duplicates.Load(),
		Retries:         s.retries.Load(),
		Redeliveries:    s.redeliveries.Load(),
		EvictedBatches:  s.evicted.Load(),
		DroppedSamples:  s.droppedSamples.Load(),
		ExhaustedBatch:  s.exhausted.Load(),
		PoisonedBatches: s.poison.Load(),
		DegradedWaits:   s.degradedWaits.Load(),
		ShedWaits:       s.shedWaits.Load(),
		BreakerOpens:    opens,
		HintRoutes:      s.hintRoutes.Load(),
		Failovers:       s.failovers.Load(),
		Failbacks:       s.failbacks.Load(),
		Pending:         s.Pending(),
		Target:          cur.url,
		Breaker:         cur.breaker.stateName(),
		Epoch:           s.maxEpoch.Load(),
	}
}

// Flush delivers everything currently pending (and anything enqueued
// meanwhile) and returns when the buffer is empty or ctx is cancelled.
func (s *Shipper) Flush(ctx context.Context) error {
	for {
		e := s.next()
		if e == nil {
			return nil
		}
		if err := s.deliver(ctx, e); err != nil {
			return err
		}
	}
}

// next marks and returns the oldest pending batch, or nil.
func (s *Shipper) next() *batchEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	e := s.pending[0]
	e.inflight = true
	return e
}

// remove drops e from the buffer (it is at the head unless evicted).
func (s *Shipper) remove(e *batchEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, p := range s.pending {
		if p == e {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// postResult classifies one delivery attempt's response.
type postResult struct {
	status     int
	retryAfter time.Duration
	dup        bool
	fenced     bool // 409 + X-Repl-Fenced: a deposed, fenced primary
	wrongRole  bool // 503 + X-Repl-Role follower: a warm standby
	degraded   bool // 503 + X-Storage-Degraded: primary's disk is unwritable
	overCap    bool // 429 + X-Over-Capacity: primary is load-shedding
	// primaryHint is the "primary" URL from a not_primary error body:
	// the follower tells the shipper where the primary is, so rotation
	// jumps straight to it instead of probing targets in order.
	primaryHint string
}

// deliver attempts e until acknowledged, poisoned, exhausted, or ctx is
// cancelled. Only a ctx error is returned — delivery failures are
// absorbed into the counters and the retry loop.
func (s *Shipper) deliver(ctx context.Context, e *batchEntry) error {
	rotations := 0 // consecutive wrong-role answers without a backoff
	for attempt := 0; ; attempt++ {
		t, probe, err := s.pickTarget(ctx)
		if err != nil {
			return err
		}
		res, err := s.post(ctx, t, e)
		switch {
		case err == nil && res.status == http.StatusAccepted:
			t.breaker.success()
			if probe {
				// Failback probe succeeded: the preferred target is
				// primary again, make it current.
				s.switchTo(0)
			}
			s.shippedBatches.Add(1)
			s.shippedSamples.Add(int64(len(e.samples)))
			if res.dup {
				s.duplicates.Add(1)
			}
			if e.redelivery {
				s.redeliveries.Add(1)
			}
			s.remove(e)
			s.logger.Debug("batch shipped",
				slog.String("trace_id", e.trace),
				slog.Uint64("seq", e.seq),
				slog.Int("samples", len(e.samples)),
				slog.Int("attempts", attempt+1),
				slog.String("target", t.url),
				slog.Bool("duplicate", res.dup))
			return nil
		case err == nil && (res.fenced || res.wrongRole):
			// The server answered authoritatively that it is not (or no
			// longer) the primary — the batch was definitively NOT
			// counted. The server itself is healthy, so this is a
			// routing miss, not a breaker failure and not poison:
			// rotate to the next target and re-send immediately.
			t.breaker.success()
			s.logger.Debug("target is not the primary — rotating",
				slog.String("trace_id", e.trace),
				slog.Uint64("seq", e.seq),
				slog.String("target", t.url),
				slog.Bool("fenced", res.fenced),
				slog.String("primary_hint", res.primaryHint))
			if !probe {
				next := (t.idx + 1) % len(s.targets)
				if idx := s.findTarget(res.primaryHint); idx >= 0 && idx != t.idx {
					// The follower named the primary: route straight to it.
					next = idx
					s.hintRoutes.Add(1)
				}
				s.switchTo(next)
			}
			if rotations++; rotations%len(s.targets) == 0 {
				// A full lap found no primary (mid-promotion window):
				// back off before lapping again.
				if err := retry.Sleep(ctx, s.backoff(attempt, 0)); err != nil {
					return err
				}
			}
			continue
		case err == nil && res.degraded:
			// Storage-degraded backpressure: the primary is up and
			// authoritative but its disk cannot take durable writes right
			// now (ENOSPC, failing device). This is the one 503 the
			// shipper waits out in place — rotating would be wrong (the
			// other targets are followers, and a full disk usually heals),
			// and it is not a breaker failure (the server answered
			// decisively). Honor Retry-After, keep spilling, re-send the
			// same seq when the window passes.
			t.breaker.success()
			rotations = 0
			e.redelivery = true
			s.degradedWaits.Add(1)
			s.logger.Debug("target storage degraded — waiting in place",
				slog.String("trace_id", e.trace),
				slog.Uint64("seq", e.seq),
				slog.String("target", t.url),
				slog.Duration("retry_after", res.retryAfter))
			if err := retry.Sleep(ctx, s.backoff(attempt, res.retryAfter)); err != nil {
				return err
			}
			continue
		case err == nil && res.overCap:
			// Admission shed (429 over_capacity): the primary is healthy
			// and authoritative but actively load-shedding — AIMD limiter,
			// CoDel queue, per-agent rate limit, or memory pressure. Wait
			// in place with the hinted (jittered) backoff: rotating would
			// dogpile the followers, and a decisive answer is not a breaker
			// failure. Re-send the same seq when the window passes.
			t.breaker.success()
			rotations = 0
			e.redelivery = true
			s.shedWaits.Add(1)
			s.logger.Debug("target over capacity — waiting in place",
				slog.String("trace_id", e.trace),
				slog.Uint64("seq", e.seq),
				slog.String("target", t.url),
				slog.Duration("retry_after", res.retryAfter))
			if err := retry.Sleep(ctx, s.backoff(attempt, res.retryAfter)); err != nil {
				return err
			}
			continue
		case err == nil && res.status >= 400 && res.status < 500 &&
			res.status != http.StatusTooManyRequests && res.status != http.StatusRequestTimeout:
			// The server deterministically refuses this batch; retrying
			// cannot help (poison). Drop it and move on.
			s.poison.Add(1)
			s.droppedSamples.Add(int64(len(e.samples)))
			s.remove(e)
			s.logger.Warn("batch poisoned",
				slog.String("trace_id", e.trace),
				slog.Uint64("seq", e.seq),
				slog.Int("status", res.status))
			return nil
		}
		// Transport error, 5xx, or retryable 4xx: ambiguous — the server
		// may have counted the batch. Re-send with the same seq; the
		// dedup window makes that safe.
		rotations = 0
		if ctx.Err() != nil {
			return ctx.Err()
		}
		e.redelivery = true
		s.retries.Add(1)
		t.breaker.failure()
		if s.logger.Enabled(ctx, slog.LevelDebug) {
			errStr := ""
			if err != nil {
				errStr = err.Error()
			}
			s.logger.Debug("delivery retry",
				slog.String("trace_id", e.trace),
				slog.Uint64("seq", e.seq),
				slog.Int("attempt", attempt+1),
				slog.Int("status", res.status),
				slog.String("error", errStr),
				slog.String("target", t.url))
		}
		if s.cfg.MaxAttempts > 0 && attempt+1 >= s.cfg.MaxAttempts {
			s.exhausted.Add(1)
			s.droppedSamples.Add(int64(len(e.samples)))
			s.remove(e)
			s.logger.Warn("batch exhausted after max attempts",
				slog.String("trace_id", e.trace),
				slog.Uint64("seq", e.seq),
				slog.Int("attempts", attempt+1))
			return nil
		}
		if len(s.targets) > 1 {
			if _, ok := t.breaker.allow(time.Now()); !ok {
				// This failure left the target's breaker open: skip the
				// backoff and let pickTarget fail over right away.
				continue
			}
		}
		if err := retry.Sleep(ctx, s.backoff(attempt, res.retryAfter)); err != nil {
			return err
		}
	}
}

// pickTarget chooses the endpoint for the next attempt: normally the
// current target, scanning forward past any whose breaker is open
// (failover); while the shipper has failed away from the preferred
// targets[0], every FailbackEvery one delivery is routed there as a
// failback probe. Blocks only when every target's breaker is open.
func (s *Shipper) pickTarget(ctx context.Context) (t *target, probe bool, err error) {
	for {
		now := time.Now()
		s.tmu.Lock()
		cur := s.cur
		probeDue := cur != 0 && now.After(s.failbackAt)
		if probeDue {
			s.failbackAt = now.Add(s.cfg.FailbackEvery)
		}
		s.tmu.Unlock()
		if probeDue {
			if _, ok := s.targets[0].breaker.allow(now); ok {
				return s.targets[0], true, nil
			}
		}
		minWait := time.Duration(-1)
		for i := 0; i < len(s.targets); i++ {
			idx := (cur + i) % len(s.targets)
			wait, ok := s.targets[idx].breaker.allow(now)
			if ok {
				if idx != cur {
					s.switchTo(idx)
				}
				return s.targets[idx], false, nil
			}
			if minWait < 0 || wait < minWait {
				minWait = wait
			}
		}
		if err := retry.Sleep(ctx, minWait); err != nil {
			return nil, false, err
		}
	}
}

// switchTo makes idx the current target, counting a failover (away from
// the current target) or a failback (return to the preferred one) and
// rearming the failback probe timer.
func (s *Shipper) switchTo(idx int) {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if idx == s.cur {
		return
	}
	if idx == 0 {
		s.failbacks.Add(1)
	} else {
		s.failovers.Add(1)
	}
	s.cur = idx
	s.failbackAt = time.Now().Add(s.cfg.FailbackEvery)
}

// post sends one delivery attempt to t and classifies the response.
func (s *Shipper) post(ctx context.Context, t *target, e *batchEntry) (res postResult, err error) {
	// The canonical form the server's single-pass scanner reads. A fresh
	// buffer per attempt: the transport may still be reading the body
	// after Do has returned. 48 bytes covers a typical encoded sample.
	body, err := trace.AppendBatch(make([]byte, 0, 64+len(s.cfg.AgentID)+48*len(e.samples)), &trace.SampleBatch{
		AgentID:    s.cfg.AgentID,
		Seq:        e.seq,
		Redelivery: e.redelivery,
		Samples:    e.samples,
	})
	if err != nil {
		return res, fmt.Errorf("ship: marshal batch %d: %w", e.seq, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	if e.trace != "" {
		req.Header.Set(obs.HeaderTraceID, e.trace)
	}
	req.Header.Set("X-Breaker-State", t.breaker.stateName())
	req.Header.Set("X-Agent-Retries", strconv.FormatInt(s.retries.Load(), 10))
	req.Header.Set("X-Agent-Spill-Depth", strconv.Itoa(s.Pending()))
	if ep := s.maxEpoch.Load(); ep > 0 {
		// Gossip the highest replication epoch seen so far; a deposed
		// primary fences itself on first contact with a newer epoch.
		req.Header.Set("X-Repl-Epoch", strconv.FormatUint(ep, 10))
	}

	t0 := time.Now()
	resp, err := s.client.Do(req)
	if s.cfg.Observe != nil {
		st := 0
		if resp != nil {
			st = resp.StatusCode
		}
		s.cfg.Observe(time.Since(t0), st, err)
	}
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if v := resp.Header.Get("X-Repl-Epoch"); v != "" {
		if ep, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			storeMaxEpoch(&s.maxEpoch, ep)
		}
	}
	res.status = resp.StatusCode
	var ack struct {
		Accepted  int  `json:"accepted"`
		Duplicate bool `json:"duplicate"`
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		// A decode failure (e.g. a body cut off mid-answer) is ambiguous:
		// the 202 status line arrived, so the batch was counted. Treat
		// it as success — re-sending is also safe, but pointless.
		_ = json.NewDecoder(resp.Body).Decode(&ack)
		res.dup = ack.Duplicate
		return res, nil
	case http.StatusConflict:
		res.fenced = resp.Header.Get("X-Repl-Fenced") == "1"
		return res, nil
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		if resp.Header.Get("X-Repl-Role") == "follower" {
			res.wrongRole = true
			// The not_primary body may carry the primary's URL.
			var hint struct {
				Code    string `json:"code"`
				Primary string `json:"primary"`
			}
			if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&hint) == nil && hint.Code == "not_primary" {
				res.primaryHint = hint.Primary
			}
			return res, nil
		}
		if resp.Header.Get("X-Repl-Lease") == "expired" {
			// A primary without its election lease cannot safely ack;
			// treat it like a wrong-role answer — another node may hold
			// (or be about to win) the lease. Unlike storage degradation,
			// waiting here risks pinning on a partitioned node.
			res.wrongRole = true
			return res, nil
		}
		res.degraded = resp.Header.Get("X-Storage-Degraded") == "1"
		res.overCap = resp.Header.Get("X-Over-Capacity") == "1"
		res.retryAfter = min(retry.RetryAfter(resp.Header), s.cfg.MaxBackoff)
		return res, nil
	default:
		return res, nil
	}
}

// storeMaxEpoch raises u to v if v is larger (CAS loop).
func storeMaxEpoch(u *atomic.Uint64, v uint64) {
	for {
		cur := u.Load()
		if v <= cur || u.CompareAndSwap(cur, v) {
			return
		}
	}
}

// backoff draws the next retry delay (retry.Backoff.Delay) from the
// shipper's seeded jitter source, which flushes on several goroutines
// share.
func (s *Shipper) backoff(attempt int, retryAfter time.Duration) time.Duration {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return retry.Backoff{Base: s.cfg.BaseBackoff, Max: s.cfg.MaxBackoff}.Delay(s.rng, attempt, retryAfter)
}
