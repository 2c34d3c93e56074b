// Package serve is the HTTP layer of the powserved online telemetry
// service: batch sample ingest with bounded-queue backpressure, node
// series and live job characterization queries, pre-execution power
// prediction from a serialized BDT, and operational endpoints
// (/metrics, /healthz) — stdlib net/http only.
//
// Endpoints:
//
//	POST /v1/samples          ingest a trace.SampleBatch (202, or 503 on backpressure)
//	GET  /v1/nodes/{id}/series?from=&to=   retained window of one node
//	GET  /v1/jobs/{id}/power  live streaming characterization of one job
//	POST /v1/predict          BDT prediction from (user, nodes, wall_hours)
//	GET  /v1/summary          store-wide reduction (merged shards)
//	GET  /metrics             Prometheus-style counters
//	GET  /healthz             liveness
//	GET  /readyz              readiness: 503 during recovery replay and drain
//
// With a DurabilityConfig (NewDurable) the ingest path is crash-safe:
// accepted batches hit a write-ahead log before the queue, snapshots
// bound replay, and Recover rebuilds the exact pre-crash analytics.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower/internal/admit"
	"hpcpower/internal/anomaly"
	"hpcpower/internal/elect"
	"hpcpower/internal/mlearn"
	"hpcpower/internal/obs"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

// Config parameterizes the server.
type Config struct {
	// QueueDepth bounds the ingest queue (batches). 0 means 256. When the
	// queue is full, POST /v1/samples answers 503 + Retry-After instead of
	// blocking the agent — explicit backpressure, never unbounded memory.
	QueueDepth int
	// IngestWorkers drains the queue into the store. 0 means 4.
	IngestWorkers int
	// MaxBatchBytes bounds an ingest request body. 0 means 8 MiB.
	MaxBatchBytes int64
	// RequestTimeout bounds handler time per request. 0 means 10 s.
	RequestTimeout time.Duration
	// DedupWindow is the per-agent reordering tolerance (batches) of the
	// idempotent-ingest index. 0 means 4096.
	DedupWindow int
	// Logger receives the server's structured logs (per-component via
	// obs.Component). nil discards — tests and embedders stay silent.
	Logger *slog.Logger
	// SlowRequest is the slow-request log threshold: any instrumented
	// request at or over it logs a Warn with its endpoint, status,
	// duration, and trace ID. 0 means 1 s; negative disables.
	SlowRequest time.Duration
	// BlockFlushInterval is the cadence of the background head→block
	// flush loop (only with a block store attached to the tsdb store).
	// 0 disables the loop — windows seal only via POST /v1/admin/flush.
	BlockFlushInterval time.Duration
	// BlockFlushGrace holds the flush cut this far behind wall clock so
	// late samples still land in their window. 0 means 5 m.
	BlockFlushGrace time.Duration
	// Admit parameterizes the admission-control layer: the AIMD ingest
	// limiter, CoDel queue shedding, per-agent rate limiting, priority
	// quotas, and the memory watermark. The zero value enables the
	// limiter and CoDel with their defaults and leaves rate limiting and
	// the watermark off.
	Admit admit.Config
	// Anomaly is the optional streaming anomaly-detection engine. Its
	// Lookup must be the store's JobFingerprint. With it set the apply
	// path (live ingest, WAL replay, replicated apply) feeds every batch
	// to the engine, GET /v1/anomalies serves its events, alert state
	// rides snapshots, and a follower's engine stays silent until
	// promotion. The server owns the engine: Close shuts it down.
	Anomaly *anomaly.Engine
}

// DefaultConfig returns the sizing powserved starts with.
func DefaultConfig() Config {
	return Config{QueueDepth: 256, IngestWorkers: 4, MaxBatchBytes: 8 << 20, RequestTimeout: 10 * time.Second}
}

// Server wires the TSDB, the prediction model, and the HTTP API.
type Server struct {
	store *tsdb.Store
	model *mlearn.BDT // may be nil: predict answers 503
	cfg   Config

	mux     *http.ServeMux
	metrics *metrics
	dedup   *tsdb.Deduper
	dur     *durability     // nil: ingest is memory-only (no WAL)
	anom    *anomaly.Engine // nil: anomaly detection disabled
	ready   atomic.Bool     // false until recovery completes

	// elector is the optional leader-election state machine (see
	// election.go); nil unless StartElection wired one. With it set, a
	// primary only acks while it holds the leader lease, and a deposed
	// primary automatically rejoins its successor as a follower.
	elector atomic.Pointer[elect.Elector]

	// ingestQ is the bounded ingest queue with CoDel shedding: Push
	// races Close safely (errors, never panics), and overdue entries are
	// shed oldest-first via onIngestShed under sustained overload.
	ingestQ *admit.Queue[queuedBatch]
	// adm is the admission-control state: AIMD limiter, priority gate,
	// per-agent rate buckets, memory watermark. See admit.go.
	adm *admission
	// flushStop terminates the background block-flush and memory-monitor
	// loops (see query.go and admit.go).
	flushStop chan struct{}
	flushWG   sync.WaitGroup
	workerWG  sync.WaitGroup
	draining  atomic.Bool
}

// New builds a server around a store and an optional prediction model,
// and starts its ingest workers. Call Close (or Shutdown) to drain.
func New(store *tsdb.Store, model *mlearn.BDT, cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.IngestWorkers <= 0 {
		cfg.IngestWorkers = 4
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 8 << 20
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	s := &Server{
		store:     store,
		model:     model,
		cfg:       cfg,
		mux:       http.NewServeMux(),
		dedup:     tsdb.NewDeduper(tsdb.DedupConfig{Window: cfg.DedupWindow}),
		anom:      cfg.Anomaly,
		flushStop: make(chan struct{}),
	}
	s.ready.Store(true) // nothing to recover
	s.metrics = newMetrics(func() int { return s.ingestQ.Len() })
	s.metrics.reg.AddCollector(s.collectJobs)
	if s.anom != nil {
		s.metrics.reg.AddCollector(s.collectAnomaly)
	}
	s.initAdmit()
	s.metrics.logger = obs.Component(cfg.Logger, "serve")
	switch {
	case cfg.SlowRequest > 0:
		s.metrics.slowThreshold = cfg.SlowRequest
	case cfg.SlowRequest == 0:
		s.metrics.slowThreshold = time.Second
	}
	for i := 0; i < cfg.IngestWorkers; i++ {
		s.workerWG.Add(1)
		go s.ingestWorker()
	}
	s.routes()
	s.startBlockLoop()
	s.startMemLoop()
	return s
}

// NewDurable builds a crash-safe server: it locks and validates the data
// directory immediately (fail-fast on a missing, unwritable, or already
// locked dir) but does not replay — call Recover before serving traffic.
// Until Recover completes, /readyz answers 503 and ingest answers 503.
func NewDurable(store *tsdb.Store, model *mlearn.BDT, cfg Config, dcfg DurabilityConfig) (*Server, error) {
	dur, err := openDurability(dcfg)
	if err != nil {
		return nil, err
	}
	s := New(store, model, cfg)
	s.dur = dur
	if s.anom != nil && dur.repl != nil && dur.repl.isFollower.Load() {
		// A follower tracks alert state silently so a failover never
		// double-pages; promotion re-enables sink delivery.
		s.anom.SetDeliver(false)
	}
	s.metrics.reg.AddCollector(dur.collect)
	dur.repl.onSend = func(records int64) { s.metrics.replSend.Observe(float64(records)) }
	dur.repl.onRead = s.metrics.replRead.ObserveDuration
	dur.repl.logger = obs.Component(cfg.Logger, "repl")
	s.ready.Store(false) // Recover flips it
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/samples", s.metrics.instrument("ingest", s.handleIngest))
	s.mux.HandleFunc("GET /v1/nodes/{id}/series", s.metrics.instrument("node_series", s.handleNodeSeries))
	s.mux.HandleFunc("GET /v1/jobs", s.metrics.instrument("jobs", s.handleJobs))
	s.mux.HandleFunc("GET /v1/jobs/{id}/power", s.metrics.instrument("job_power", s.handleJobPower))
	s.mux.HandleFunc("POST /v1/predict", s.metrics.instrument("predict", s.handlePredict))
	s.mux.HandleFunc("GET /v1/summary", s.metrics.instrument("summary", s.handleSummary))
	anomalies := s.metrics.instrument("anomalies", s.handleAnomalies)
	s.mux.HandleFunc("GET /v1/anomalies", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("stream") == "1" {
			// The NDJSON stream is long-lived and needs the raw
			// http.Flusher; latency accounting would only measure the
			// client's disconnect time.
			s.handleAnomalies(w, r)
			return
		}
		anomalies(w, r)
	})
	s.mux.HandleFunc("GET /v1/query/range", s.metrics.instrument("query_range", s.gated(admit.ClassQuery, "query", s.handleQueryRange)))
	s.mux.HandleFunc("GET /v1/query/nodes", s.metrics.instrument("query_nodes", s.gated(admit.ClassQuery, "query", s.handleQueryNodes)))
	s.mux.HandleFunc("GET /v1/query/distribution", s.metrics.instrument("query_distribution", s.gated(admit.ClassQuery, "query", s.handleQueryDistribution)))
	s.mux.HandleFunc("POST /v1/admin/flush", s.metrics.instrument("admin_flush", s.gated(admit.ClassAdmin, "admin", s.handleAdminFlush)))
	s.mux.HandleFunc("POST /v1/admin/scrub", s.metrics.instrument("admin_scrub", s.gated(admit.ClassAdmin, "admin", s.handleAdminScrub)))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/traces/recent", s.metrics.traces.Handler())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/repl/stream", s.handleReplStream)
	s.mux.HandleFunc("GET /v1/repl/snapshot", s.metrics.instrument("repl_snapshot", s.handleReplSnapshot))
	s.mux.HandleFunc("POST /v1/repl/ack", s.metrics.instrument("repl_ack", s.handleReplAck))
	s.mux.HandleFunc("GET /v1/repl/frontier", s.metrics.instrument("repl_frontier", s.handleReplFrontier))
	s.mux.HandleFunc("POST /v1/promote", s.metrics.instrument("promote", s.handlePromote))
}

// Handler returns the fully instrumented root handler with the request
// timeout applied (ingest and predict are fast; the timeout guards the
// query endpoints against pathological windows).
func (s *Server) Handler() http.Handler {
	timed := timeoutJSON(s.mux, s.cfg.RequestTimeout)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The replication stream is long-lived by design and needs
		// http.Flusher — http.TimeoutHandler provides neither, so it is
		// routed around the timeout wrapper. The anomaly event stream
		// (stream=1) is the same kind of connection.
		if r.URL.Path == "/v1/repl/stream" ||
			(r.URL.Path == "/v1/anomalies" && r.URL.Query().Get("stream") == "1") {
			s.mux.ServeHTTP(w, r)
			return
		}
		timed.ServeHTTP(w, r)
	})
}

// timeoutJSON wraps h in http.TimeoutHandler with a JSON timeout body
// that is actually served as JSON: TimeoutHandler writes its body with
// whatever headers the underlying writer already carries, so the
// Content-Type is pre-set here. Handlers that complete in time replace
// it with their own (TimeoutHandler copies their headers over).
func timeoutJSON(h http.Handler, d time.Duration) http.Handler {
	th := http.TimeoutHandler(h, d, `{"error":"request timeout"}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		th.ServeHTTP(w, r)
	})
}

// Close stops accepting ingest work and drains the queue. Safe against
// concurrent ingest handlers: a Push racing Close gets ErrClosed (never
// a panic), and workers apply the remaining backlog before exiting.
func (s *Server) Close() {
	if s.draining.Swap(true) {
		return
	}
	s.ingestQ.Close(true)
	close(s.flushStop)
	s.flushWG.Wait()
	s.workerWG.Wait()
	if s.dur != nil {
		s.dur.close(s)
	}
	if s.anom != nil {
		s.anom.Close()
	}
}

// errJSON writes a JSON error body with the given status.
func errJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds scales the 503 Retry-After hint with ingest queue
// occupancy: a briefly-full queue asks agents back in a second, a deeply
// backed-up one pushes the retry storm further out so the workers can
// drain. occupancy is in [0, 1].
func retryAfterSeconds(depth, capacity int) int {
	if capacity <= 0 {
		return 1
	}
	occ := float64(depth) / float64(capacity)
	if occ < 0 {
		occ = 0
	} else if occ > 1 {
		occ = 1
	}
	return 1 + int(occ*4+0.5) // 1 s empty → 5 s full
}

func (s *Server) retryAfter() int {
	return retryAfterSeconds(s.ingestQ.Len(), s.ingestQ.Cap())
}

// drainingUnavailable answers a write that met the drain, at the gate or
// by losing Push's race with Close.
func (s *Server) drainingUnavailable(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	errJSON(w, http.StatusServiceUnavailable, "server draining")
}

// storageUnavailable answers a write request with the storage-degraded
// 503: machine-readable code, Retry-After, and the marker header that
// lets shippers tell "disk trouble, stay put" from "follower, rotate".
func (s *Server) storageUnavailable(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	w.Header().Set(HeaderStorageDegraded, "1")
	errJSONCode(w, http.StatusServiceUnavailable, CodeStorageDegraded, "storage degraded: %s", reason)
}

// ingestResponse is the body of a 202 from POST /v1/samples. Duplicate
// deliveries are acknowledged (the data is already counted — re-sending
// would be wrong) with accepted=0 and duplicate=true.
type ingestResponse struct {
	Accepted  int  `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// bufPool recycles the byte buffers of the ingest path (request bodies,
// encoded WAL records) and samplePool the decoded sample slices, so a
// steady stream of same-sized batches allocates neither.
var (
	bufPool    = sync.Pool{New: func() any { return new([]byte) }}
	samplePool = sync.Pool{New: func() any { return new([]trace.PowerSample) }}
)

// readInto is io.ReadAll into buf[:0].
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errReader yields err; decodeBatch chains it after the bytes that did
// arrive.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeBatch decodes an ingest body into dst[:0]. A body in the
// canonical form (see trace.ScanBatch) takes the single-pass scanner.
// Anything else goes through the json.Decoder call this handler always
// made, on the same bytes — followed by readErr when the body could not
// be read to its end — so such a request is accepted or refused, and
// worded, exactly as before.
func (s *Server) decodeBatch(body []byte, readErr error, dst []trace.PowerSample) (trace.SampleBatch, error) {
	if readErr == nil {
		if batch, ok := trace.ScanBatch(body, dst); ok {
			return batch, nil
		}
		s.metrics.decodeFallback.Inc()
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var batch trace.SampleBatch
	err := json.NewDecoder(src).Decode(&batch)
	return batch, err
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.drainingUnavailable(w)
		return
	}
	if !s.ready.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		errJSON(w, http.StatusServiceUnavailable, "server recovering")
		return
	}
	if !s.replGateIngest(w, r) {
		return
	}
	if d := s.dur; d != nil && d.storageDegraded() {
		// Reads keep serving; only the write path refuses while the data
		// dir cannot make bytes durable. Shippers spill and retry.
		s.metrics.batchesRejected.Add(1)
		s.storageUnavailable(w, d.degradeReason())
		return
	}
	if s.adm.memDegraded.Load() {
		// Memory pressure: shed before even decoding the body — the
		// cheapest possible refusal while the node works its backlog down.
		s.metrics.batchesRejected.Add(1)
		s.overCapacity(w, "memory", 0)
		return
	}
	start := time.Now()
	bp := bufPool.Get().(*[]byte)
	if need := int(min(r.ContentLength, s.cfg.MaxBatchBytes)) + 1; cap(*bp) < need {
		*bp = make([]byte, 0, need) // +1: the read that reports EOF needs room too
	}
	body, readErr := readInto(*bp, http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes))
	// The samples go back to the pool on every exit but the one that
	// leaves the batch queued with nobody waiting on it: there a worker or
	// the shed callback may still be reading them.
	sp := samplePool.Get().(*[]trace.PowerSample)
	held := false
	defer func() {
		if !held {
			samplePool.Put(sp)
		}
	}()
	batch, err := s.decodeBatch(body, readErr, *sp)
	// The decoded batch holds no reference into the body.
	*bp = body
	bufPool.Put(bp)
	if err != nil {
		s.metrics.batchesInvalid.Add(1)
		errJSON(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	*sp = batch.Samples
	if len(batch.Samples) == 0 {
		s.metrics.batchesInvalid.Add(1)
		errJSON(w, http.StatusBadRequest, "empty batch")
		return
	}
	if err := batch.Validate(); err != nil {
		s.metrics.batchesInvalid.Add(1)
		errJSON(w, http.StatusBadRequest, "invalid batch: %v", err)
		return
	}
	if batch.Redelivery {
		s.metrics.redeliveries.Add(1)
	}
	// Propagate the shipper-minted trace ID: echo it on the response and
	// carry it through the WAL and apply stages so one grep follows the
	// batch end to end.
	traceID := r.Header.Get(obs.HeaderTraceID)
	if traceID != "" {
		w.Header().Set(obs.HeaderTraceID, traceID)
	}
	if batch.AgentID != "" {
		s.metrics.observeAgent(batch.AgentID, r.Header)
		// Per-agent token bucket: one misbehaving agent exhausts its own
		// budget and gets a precise Retry-After; the fleet is untouched.
		if ok, retry := s.adm.buckets.Allow(batch.AgentID); !ok {
			s.metrics.batchesRejected.Add(1)
			s.overCapacity(w, "agent_rate", retry)
			return
		}
	}
	// AIMD limiter: the primary ingest control. Release feeds the ack
	// latency (accept → applied/durable) back into the control loop.
	if !s.adm.limiter.Acquire() {
		s.metrics.batchesRejected.Add(1)
		s.overCapacity(w, "limiter", 0)
		return
	}
	defer func() { s.adm.limiter.Release(time.Since(start)) }()
	o := s.accept(r.Context(), &batch, traceID)
	held = o.held
	if o.kind >= outShed {
		s.metrics.batchesRejected.Add(1)
	}
	switch o.kind {
	case outAccepted:
		s.metrics.batchesAccepted.Add(1)
		writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: len(batch.Samples)})
		d := time.Since(start)
		s.metrics.ingestE2E.ObserveDuration(d)
		s.traceStage("batch ingested", obs.TraceEvent{
			Trace: traceID, Stage: "ingest", Agent: batch.AgentID, Seq: int64(batch.Seq),
			LSN: int64(o.lsn), Samples: len(batch.Samples), Status: "accepted",
		}, d)
	case outDuplicate, outStale:
		// Already counted — acknowledge, so the agent stops re-sending.
		s.metrics.batchesDuplicate.Add(1)
		if o.kind == outStale {
			s.metrics.batchesStale.Add(1)
		}
		writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: 0, Duplicate: true})
	case outShed:
		s.overCapacity(w, "codel", 0)
	case outFull:
		// Backpressure: the agent owns the retry, and cancel has made sure
		// it can re-send this sequence number successfully.
		s.overCapacity(w, "queue", 0)
	case outDraining:
		s.drainingUnavailable(w)
	case outStorage:
		s.storageUnavailable(w, o.err.Error())
	case outReplication, outEncode:
		errJSON(w, http.StatusInternalServerError, "%v", o.err)
	}
}

func (s *Server) handleNodeSeries(w http.ResponseWriter, r *http.Request) {
	node, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || node < 0 {
		errJSON(w, http.StatusBadRequest, "bad node id %q", r.PathValue("id"))
		return
	}
	from, to, ok := parseWindow(w, r)
	if !ok {
		return
	}
	points := s.store.NodeSeries(node, from, to)
	writeJSON(w, http.StatusOK, map[string]any{"node": node, "points": points})
}

func (s *Server) handleJobPower(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || id == 0 {
		errJSON(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return
	}
	stats, ok := s.store.JobPower(id)
	if !ok {
		errJSON(w, http.StatusNotFound, "no samples for job %d", id)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	ids := s.store.Jobs()
	if ids == nil {
		ids = []uint64{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": ids})
}

// PredictRequest is the body of POST /v1/predict: the paper's three
// pre-execution features.
type PredictRequest struct {
	User      string  `json:"user"`
	Nodes     int     `json:"nodes"`
	WallHours float64 `json:"wall_hours"`
}

// PredictResponse is the prediction plus the leaf's uncertainty — what a
// power-aware scheduler needs to size cap headroom.
type PredictResponse struct {
	PredictedW float64 `json:"predicted_w"`
	LeafStdW   float64 `json:"leaf_std_w"`
	LeafN      int     `json:"leaf_n"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if s.model == nil {
		errJSON(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	var req PredictRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		errJSON(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Nodes <= 0 || req.WallHours <= 0 {
		errJSON(w, http.StatusBadRequest, "nodes and wall_hours must be positive")
		return
	}
	pred, std, n := s.model.PredictWithStd(mlearn.Features{
		User: req.User, Nodes: req.Nodes, WallHours: req.WallHours,
	})
	writeJSON(w, http.StatusOK, PredictResponse{PredictedW: pred, LeafStdW: std, LeafN: n})
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Summarize())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.reg.WritePrometheus(w)
}

// Registry exposes the server's metrics registry, e.g. for serving the
// same exposition on a separate debug listener.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Traces exposes the server's recent-trace ring for the debug listener.
func (s *Server) Traces() *obs.TraceRing { return s.metrics.traces }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"ingested": s.store.Ingested(),
	})
}

// handleReadyz is the readiness probe: unlike /healthz (process up), it
// answers 503 while the server cannot usefully take traffic — during
// recovery replay, before Recover has run, and during graceful drain.
// The body is machine-readable: besides "status", a replicated node
// reports its role, fencing epoch, apply frontier, and replication lag,
// so load balancers and failover drills can route on one probe.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, s.readyzBody("draining"))
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, s.readyzBody("recovering"))
	default:
		writeJSON(w, http.StatusOK, s.readyzBody("ready"))
	}
}

func (s *Server) readyzBody(status string) map[string]any {
	body := map[string]any{"status": status}
	// Memory pressure is not unreadiness (reads keep serving, writes shed
	// with an actionable 429), but probes and drills route on it.
	body["mem_degraded"] = s.adm.memDegraded.Load()
	if s.adm.cfg.MemWatermark > 0 {
		body["mem_bytes"] = s.memBytes()
		body["mem_watermark_bytes"] = s.adm.cfg.MemWatermark
	}
	if s.anom != nil {
		body["anomaly"] = s.anomalyReadyz()
	}
	d := s.dur
	if d == nil {
		return body
	}
	// Degraded storage is not unreadiness: the node still serves reads
	// and rejects writes with an actionable 503, so /readyz stays 200
	// and reports the condition for probes that want to route on it.
	body["storage_degraded"] = d.storageDegraded()
	if reason := d.degradeReason(); reason != "" {
		body["storage_reason"] = reason
	}
	if d.repl == nil {
		return body
	}
	rs := d.repl
	body["role"] = rs.role()
	body["epoch"] = rs.epoch.Epoch()
	body["fenced"] = rs.fenced.Load()
	var applied uint64
	if d.recovered.Load() {
		applied = d.tracker.Load().frontierLSN()
	}
	body["applied_lsn"] = applied
	body["repl_applied_lsn"] = rs.replApplied.Load()
	body["repl_lag_records"] = rs.lagRecords()
	body["rejoins"] = rs.rejoins.Load()
	body["diverged_records"] = rs.divergedRecords.Load()
	if el := s.elector.Load(); el != nil {
		body["election"] = el.Status()
	}
	return body
}

// ListenAndServe runs the server on addr until ctx is cancelled, then
// shuts down gracefully: stop accepting connections, finish in-flight
// requests, drain the ingest queue. The returned addr channel reports the
// bound address (useful with ":0").
func (s *Server) ListenAndServe(ctx context.Context, addr string) (boundAddr string, done <-chan error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("serve: %w", err)
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
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
			// Follower streams never end on their own; cut them so the
			// graceful shutdown below does not wait out its full timeout.
			if s.dur != nil {
				s.dur.repl.stopStreams()
			}
			shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shutErr := hs.Shutdown(shutCtx)
			s.Close()
			if serveErr := <-errc; serveErr != nil {
				shutErr = serveErr
			}
			result <- shutErr
		case serveErr := <-errc:
			s.Close()
			result <- serveErr
		}
	}()
	return ln.Addr().String(), result, nil
}
