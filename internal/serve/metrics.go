package serve

import (
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"hpcpower/internal/obs"
	"hpcpower/internal/stats"
)

// metrics is the server's observability surface, built on obs.Registry:
// one WritePrometheus call renders everything, every legacy powserved_*
// series under its exact name and shape.
type metrics struct {
	reg *obs.Registry

	samplesIngested  *obs.Counter // powserved_samples_ingested_total
	batchesAccepted  *obs.Counter
	batchesDuplicate *obs.Counter // (agent, seq) already counted — dedup hit
	batchesStale     *obs.Counter // duplicate because older than the dedup window
	redeliveries     *obs.Counter // batches flagged as re-sent by the agent
	decodeFallback   *obs.Counter // bodies and WAL records decoded by encoding/json, not the scanner

	refused [numOutcomes]*obs.Counter // each refusal's legacy counter (refusals table)

	// requestLatency is the per-endpoint request distribution; the
	// legacy powserved_requests_total / _request_seconds_sum /
	// _request_seconds_max series are derived from its children, so one
	// Observe on the hot path feeds both the histogram and the
	// backward-compatible counters.
	requestLatency *obs.HistogramVec // powserved_request_latency_seconds{endpoint}
	requestErrors  *obs.CounterVec   // powserved_request_errors_total{endpoint}

	// valuesScanned is what the query endpoints reduced or returned:
	// "why was this query slow" answered as "it reduced 3.7 M samples".
	valuesScanned *obs.CounterVec // powserved_query_values_scanned_total{endpoint}

	// admitShed counts sheds by reason (limiter, queue, codel,
	// agent_rate, memory, query, admin).
	admitShed *obs.CounterVec // powserved_admit_shed_total{reason}

	stages      [numStages]*obs.Histogram // each stage's legacy histogram (stageTable), or nil
	groupCommit *obs.Histogram            // powserved_group_commit_records per fsync
	replSend    *obs.Histogram            // powserved_repl_send_records per catch-up burst

	// Slow-request accounting: requests at or over slowThreshold log a
	// Warn with the endpoint, duration, and trace ID.
	slowThreshold time.Duration
	logger        *slog.Logger
	traces        *obs.TraceRing

	agentMu sync.Mutex
	agents  map[string]*agentReport
}

// stageID is one timed span of the serving pipeline.
type stageID uint8

const (
	stageBlockFlush   stageID = iota // one head→block flush pass
	stageQueueSojourn                // a delivered batch's wait in the ingest queue
	stageIngest                      // accept → ack of one batch
	stageApply                       // a worker's apply of one batch
	stageWALAppend                   // one WAL record write
	stageWALFsync                    // one WAL segment fsync
	stageReplApply                   // a follower's apply of one streamed record
	stageReplRead                    // one catch-up burst: WAL range read and frames written
	numStages
)

// stageTable names each stage (trace events, README's Stages table) and
// gives a traced pass's Debug message and the stage's legacy histogram.
var stageTable = [numStages]struct{ name, msg, histogram, help string }{
	stageBlockFlush:   {name: "block_flush", histogram: "powserved_block_flush_seconds"},
	stageQueueSojourn: {name: "queue_sojourn", histogram: "powserved_admit_queue_sojourn_seconds"},
	stageIngest:       {name: "ingest", msg: "batch ingested", histogram: "powserved_ingest_e2e_seconds"},
	stageApply:        {name: "apply", msg: "batch applied"},
	stageWALAppend:    {name: "wal_append", histogram: "powserved_wal_append_seconds"},
	stageWALFsync:     {name: "wal_fsync", histogram: "powserved_wal_fsync_seconds"},
	stageReplApply:    {name: "repl_apply", msg: "replicated batch applied", histogram: "powserved_repl_apply_seconds"},
	stageReplRead: {name: "repl_read", histogram: "powserved_repl_stream_read_seconds",
		help: "Time the replication source spent on one catch-up burst: reading its WAL range and writing the frames to the follower connection."},
}

// stage times one pass through a stage: it observes the stage's
// histogram and, for a traced batch, records the trace-ring event,
// stamped with the stage, duration and time, and the Debug line.
func (m *metrics) stage(id stageID, d time.Duration, ev obs.TraceEvent) {
	if h := m.stages[id]; h != nil {
		h.ObserveDuration(d)
	}
	if ev.Trace == "" {
		return
	}
	st := &stageTable[id]
	ev.Stage = st.name
	ev.DurMS = float64(d) / float64(time.Millisecond)
	ev.Unix = time.Now().Unix()
	m.traces.Record(ev)
	m.logger.Debug(st.msg, slog.String("trace_id", ev.Trace), slog.String("agent", ev.Agent),
		slog.Int64("seq", ev.Seq), slog.Int64("lsn", ev.LSN), slog.Int64("plsn", ev.PLSN),
		slog.Int("samples", ev.Samples), slog.Duration("dur", d))
}

// agentReport is the last delivery-health state an agent self-reported
// via ingest request headers — the server-side window into the shipper's
// breaker, retry, and spill-buffer counters.
type agentReport struct {
	breaker    string // "closed", "half-open", "open"
	retries    int64  // cumulative retry attempts
	spillDepth int64  // batches waiting in the agent's spill buffer
}

func newMetrics(queueDepth func() int) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:    reg,
		agents: map[string]*agentReport{},
		logger: obs.Component(nil, "serve"),
		traces: obs.NewTraceRing(0),
	}
	m.samplesIngested = reg.Counter("powserved_samples_ingested_total")
	m.batchesAccepted = reg.Counter("powserved_batches_accepted_total")
	counters := map[string]*obs.Counter{counterRejected: reg.Counter(counterRejected), counterInvalid: reg.Counter(counterInvalid)}
	for k, rf := range refusals {
		m.refused[k] = counters[rf.counter]
	}
	m.batchesDuplicate = reg.Counter("powserved_batches_duplicate_total")
	m.batchesStale = reg.Counter("powserved_batches_stale_total")
	m.redeliveries = reg.Counter("powserved_redeliveries_total")
	m.decodeFallback = reg.CounterHelp("powserved_ingest_decode_fallback_total",
		"Ingest bodies and WAL/replication records outside the canonical JSON form, decoded by encoding/json instead of the single-pass scanner.")
	m.requestLatency = reg.HistogramVec("powserved_request_latency_seconds", "endpoint", obs.DefaultLatencyBuckets)
	m.requestErrors = reg.CounterVec("powserved_request_errors_total", "endpoint")
	m.admitShed = reg.CounterVec("powserved_admit_shed_total", "reason")
	for id, st := range stageTable {
		if st.histogram != "" {
			m.stages[id] = reg.HistogramHelp(st.histogram, st.help, obs.DefaultLatencyBuckets)
		}
	}
	m.groupCommit = reg.Histogram("powserved_group_commit_records", obs.SizeBuckets)
	m.replSend = reg.Histogram("powserved_repl_send_records", obs.SizeBuckets)
	m.valuesScanned = reg.CounterVecHelp("powserved_query_values_scanned_total",
		"Stored samples a query endpoint read to build its answer: values reduced by /v1/query/distribution, points returned by /v1/query/range.",
		"endpoint")
	if queueDepth != nil {
		reg.GaugeFunc("powserved_ingest_queue_depth", func() float64 { return float64(queueDepth()) })
	}
	// Legacy per-endpoint and per-agent families, derived at scrape time.
	reg.AddCollector(m.collectLegacyRequests)
	reg.AddCollector(m.collectAgents)
	reg.AddCollector(collectRadixSorts)
	obs.RegisterRuntime(reg)
	return m
}

// Agent-report headers set by ship.Shipper on every delivery.
const (
	HeaderBreakerState = "X-Breaker-State"
	HeaderAgentRetries = "X-Agent-Retries"
	HeaderSpillDepth   = "X-Agent-Spill-Depth"
)

// agentReportCap bounds the per-agent gauge map; beyond it new agents
// are not tracked (the dedup index has its own, larger bound).
const agentReportCap = 1024

// observeAgent folds the agent-reported delivery-health headers into the
// per-agent gauges.
func (m *metrics) observeAgent(agent string, h http.Header) {
	m.agentMu.Lock()
	defer m.agentMu.Unlock()
	rep := m.agents[agent]
	if rep == nil {
		if len(m.agents) >= agentReportCap {
			return
		}
		rep = &agentReport{breaker: "closed"}
		m.agents[agent] = rep
	}
	if v := h.Get(HeaderBreakerState); v != "" {
		rep.breaker = v
	}
	if v := h.Get(HeaderAgentRetries); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			rep.retries = n
		}
	}
	if v := h.Get(HeaderSpillDepth); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			rep.spillDepth = n
		}
	}
}

// instrument wraps a handler with latency/throughput accounting under
// the given endpoint label. The child histogram is resolved at wrap
// time, so the request path is a lock-free Observe; slow requests
// (≥ slowThreshold) additionally log a Warn carrying the trace ID.
func (m *metrics) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.requestLatency.With(name)
	errs := m.requestErrors.With(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		d := time.Since(start)
		hist.ObserveDuration(d)
		if sw.status >= 400 {
			errs.Inc()
		}
		if m.slowThreshold > 0 && d >= m.slowThreshold {
			m.logger.Warn("slow request",
				slog.String("endpoint", name),
				slog.Int("status", sw.status),
				slog.Float64("dur_ms", float64(d)/float64(time.Millisecond)),
				slog.String("trace_id", r.Header.Get(obs.HeaderTraceID)))
		}
	}
}

// statusWriter records the response status for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// collectLegacyRequests derives the pre-histogram per-endpoint series
// from the request-latency children: requests_total is the child count,
// request_seconds_sum its sum, request_seconds_max its max.
func (m *metrics) collectLegacyRequests(e *obs.Exposition) {
	names, hists := m.requestLatency.Children()
	byName := make(map[string]*obs.Histogram, len(names))
	for i, n := range names {
		byName[n] = hists[i]
	}
	sort.Strings(names)
	for _, n := range names {
		e.CounterL("powserved_requests_total", "endpoint", n, float64(byName[n].Count()))
	}
	for _, n := range names {
		e.CounterL("powserved_request_seconds_sum", "endpoint", n, byName[n].Sum())
	}
	for _, n := range names {
		e.GaugeL("powserved_request_seconds_max", "endpoint", n, byName[n].Max())
	}
}

// collectAgents emits the last self-reported delivery-health gauges.
func (m *metrics) collectAgents(e *obs.Exposition) {
	m.agentMu.Lock()
	names := make([]string, 0, len(m.agents))
	for name := range m.agents {
		names = append(names, name)
	}
	sort.Strings(names)
	reps := make([]agentReport, len(names))
	for i, name := range names {
		reps[i] = *m.agents[name]
	}
	m.agentMu.Unlock()
	if len(names) == 0 {
		return
	}
	for i, name := range names {
		e.GaugeL("powserved_agent_breaker_state", "agent", name, float64(breakerStateValue(reps[i].breaker)))
	}
	for i, name := range names {
		e.GaugeL("powserved_agent_retries", "agent", name, float64(reps[i].retries))
	}
	for i, name := range names {
		e.GaugeL("powserved_agent_spill_depth", "agent", name, float64(reps[i].spillDepth))
	}
}

// collectRadixSorts emits stats.RadixSorts: the process's sorts of 1,024
// values or more — in a server, the distribution pulls whose readings a
// tally could not count.
func collectRadixSorts(e *obs.Exposition) {
	e.Help("powserved_sort_total", "Sorts of 1,024 values or more by path: radix ran the radix passes, on values a tally could not count.")
	e.CounterL("powserved_sort_total", "path", "radix", float64(stats.RadixSorts()))
}

// collectJobs emits how many jobs answer their median and p95 from a
// coarse count table, and how many samples came too late for a trend.
func (s *Server) collectJobs(e *obs.Exposition) {
	e.Help("powserved_job_quantiles_coarse", "Jobs held whose median_w and p95_w are within half a bucket rather than exact: a reading off the 0.1 W grid, or readings spanning more than 204.8 W, coarsened the job's count table.")
	e.Gauge("powserved_job_quantiles_coarse", float64(s.store.CoarseJobs()))
	e.Help("powserved_job_late_samples_total", "Samples applied for a job minute more than 2 minutes behind the newest minute of the job seen: counted in every analytic but the anomaly trend.")
	e.Counter("powserved_job_late_samples_total", float64(s.store.LateSamples()))
}

// breakerStateValue encodes the reported breaker state as a numeric
// gauge: 0 closed (healthy), 1 half-open (probing), 2 open (tripped).
func breakerStateValue(s string) int {
	switch s {
	case "half-open":
		return 1
	case "open":
		return 2
	default:
		return 0
	}
}
