package serve

import (
	"net/http"
	"sync/atomic"
	"time"

	"hpcpower/internal/admit"
	"hpcpower/internal/obs"
)

// Overload-shed responses. 429 over_capacity is the "slow down, retry
// here" signal — distinct from 503 storage_degraded ("disk trouble") and
// 503 not_primary ("rotate to the primary"): the shipper stays put and
// retries after the hinted wait instead of spilling or rotating.
const (
	// CodeOverCapacity is the machine-readable error code of every
	// admission-control refusal.
	CodeOverCapacity = "over_capacity"
	// HeaderOverCapacity marks a 429 as an admission shed, so shippers
	// can tell it from an intermediary's 429.
	HeaderOverCapacity = "X-Over-Capacity"
	// HeaderRetryAfterMs carries the sub-second retry hint (integer
	// milliseconds) that the coarse Retry-After header cannot express.
	HeaderRetryAfterMs = "X-Retry-After-Ms"
)

// forcedFlushMinInterval spaces the memory-pressure block flushes so a
// node stuck above the watermark does not churn tiny blocks.
const forcedFlushMinInterval = 5 * time.Second

// admission bundles the server's admission-control state: the AIMD
// ingest limiter, the priority gate, the per-agent rate buckets, and
// the memory-watermark degraded flag.
type admission struct {
	cfg     admit.Config // defaults applied
	limiter *admit.Limiter
	gate    *admit.Gate
	buckets *admit.Buckets

	memDegraded    atomic.Bool
	memTransitions atomic.Uint64
	forcedFlushes  atomic.Uint64
	lastFlush      atomic.Int64 // unix nanos of the last forced flush
}

// initAdmit builds the admission layer and the CoDel ingest queue. Must
// run before workers start and before the first scrape.
func (s *Server) initAdmit() {
	acfg := s.cfg.Admit.WithDefaults()
	s.adm = &admission{
		cfg:     acfg,
		limiter: admit.NewLimiter(acfg, nil),
		buckets: admit.NewBuckets(acfg, nil),
	}
	s.adm.gate = admit.NewGate(acfg, s.pressure)
	s.ingestQ = admit.NewQueue(admit.QueueConfig[queuedBatch]{
		Target:   acfg.Target,
		Interval: acfg.Interval,
		Capacity: s.cfg.QueueDepth,
		OnShed:   s.onIngestShed,
		SizeOf:   batchFootprint,
		Observe:  func(d time.Duration) { s.metrics.stage(stageQueueSojourn, d, obs.TraceEvent{}) },
	})
	s.metrics.reg.AddCollector(s.collectAdmit)
}

// batchFootprint estimates a queued batch's heap bytes for the memory
// watermark: slice/struct headers plus per-sample storage.
func batchFootprint(qb queuedBatch) int {
	return 128 + 48*len(qb.Samples) + len(qb.Agent) + len(qb.Trace)
}

// pressure computes the load level the priority gate sheds on:
// critical when the memory watermark is crossed, elevated when the
// ingest limiter has backed off or the queue is half full.
func (s *Server) pressure() int {
	if s.adm.memDegraded.Load() {
		return admit.PressureCritical
	}
	if s.adm.limiter.Saturated() || 2*s.ingestQ.Len() >= s.ingestQ.Cap() {
		return admit.PressureElevated
	}
	return admit.PressureNone
}

// memBytes is the accounted memory of everything admission can bound:
// head rings and job state, the ingest queue, and the dedup windows.
func (s *Server) memBytes() int64 {
	return s.store.MemoryBytes() + s.ingestQ.Bytes() + s.dedup.MemoryBytes()
}

// gated wraps a handler in the priority gate: query class sheds at
// critical pressure (memory watermark), admin class already at elevated
// pressure, and both respect their concurrency quotas.
func (s *Server) gated(c admit.Class, reason string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.adm.gate.Acquire(c)
		if !ok {
			s.metrics.admitShed.With(reason).Inc()
			s.refuse(w, http.StatusTooManyRequests, CodeOverCapacity, 0, "over capacity: %s", reason)
			return
		}
		defer release()
		h(w, r)
	}
}

// startMemLoop launches the memory-watermark monitor when one is
// configured. It shares flushStop/flushWG with the block-flush loop.
func (s *Server) startMemLoop() {
	if s.adm.cfg.MemWatermark <= 0 {
		return
	}
	s.flushWG.Add(1)
	go func() {
		defer s.flushWG.Done()
		t := time.NewTicker(s.adm.cfg.Step)
		defer t.Stop()
		for {
			select {
			case <-s.flushStop:
				return
			case <-t.C:
				s.memEval(time.Now())
			}
		}
	}()
}

// memEval runs one watermark check with hysteresis: degrade at or
// above MemWatermark, clear only below MemResume. While degraded it
// forces an early head→block flush (rate-limited) so sealed windows
// move to disk instead of waiting out the flush grace period.
func (s *Server) memEval(now time.Time) {
	a := s.adm
	mem := s.memBytes()
	degraded := a.memDegraded.Load()
	switch {
	case !degraded && mem >= a.cfg.MemWatermark:
		a.memDegraded.Store(true)
		a.memTransitions.Add(1)
		s.metrics.logger.Warn("memory watermark crossed; shedding ingest",
			"mem_bytes", mem, "watermark", a.cfg.MemWatermark)
		degraded = true
	case degraded && mem < a.cfg.MemResume:
		a.memDegraded.Store(false)
		a.memTransitions.Add(1)
		s.metrics.logger.Info("memory pressure cleared",
			"mem_bytes", mem, "resume", a.cfg.MemResume)
		degraded = false
	}
	if degraded && s.hasBlocks() && s.ready.Load() && !s.draining.Load() {
		last := a.lastFlush.Load()
		if now.UnixNano()-last >= int64(forcedFlushMinInterval) &&
			a.lastFlush.CompareAndSwap(last, now.UnixNano()) {
			a.forcedFlushes.Add(1)
			start := time.Now()
			if _, err := s.store.FlushBlocks(now.Unix()); err != nil {
				s.metrics.logger.Warn("memory-pressure flush failed", "err", err)
			} else {
				s.metrics.stage(stageBlockFlush, time.Since(start), obs.TraceEvent{})
			}
		}
	}
}

// collectAdmit emits the admission and memory gauges on every scrape.
func (s *Server) collectAdmit(e *obs.Exposition) {
	a := s.adm
	e.Gauge("powserved_admit_limit", float64(a.limiter.Limit()))
	e.Gauge("powserved_admit_inflight", float64(a.limiter.Inflight()))
	acquired, refused, shrinks, grows := a.limiter.Stats()
	e.Counter("powserved_admit_acquired_total", float64(acquired))
	e.Counter("powserved_admit_refused_total", float64(refused))
	e.Counter("powserved_admit_limit_shrinks_total", float64(shrinks))
	e.Counter("powserved_admit_limit_grows_total", float64(grows))
	shed, delivered := s.ingestQ.Stats()
	e.Counter("powserved_admit_queue_shed_total", float64(shed))
	e.Counter("powserved_admit_queue_delivered_total", float64(delivered))
	e.Gauge("powserved_admit_queue_bytes", float64(s.ingestQ.Bytes()))
	e.Gauge("powserved_admit_agents", float64(a.buckets.Agents()))
	e.Counter("powserved_admit_agent_refused_total", float64(a.buckets.Refused()))
	qShed, adShed := a.gate.ShedCounts()
	e.Counter("powserved_admit_gate_query_shed_total", float64(qShed))
	e.Counter("powserved_admit_gate_admin_shed_total", float64(adShed))
	e.Gauge("powserved_mem_bytes", float64(s.memBytes()))
	e.Gauge("powserved_mem_watermark_bytes", float64(a.cfg.MemWatermark))
	var deg float64
	if a.memDegraded.Load() {
		deg = 1
	}
	e.Gauge("powserved_mem_degraded", deg)
	e.Counter("powserved_mem_transitions_total", float64(a.memTransitions.Load()))
	e.Counter("powserved_mem_forced_flushes_total", float64(a.forcedFlushes.Load()))
}
