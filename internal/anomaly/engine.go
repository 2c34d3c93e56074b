package anomaly

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower/internal/obs"
	"hpcpower/internal/trace"
)

// Config parameterizes an Engine.
type Config struct {
	// Rules is the detector set. Nil means DefaultRules.
	Rules []Rule
	// RingSize bounds the event store. 0 means 4096.
	RingSize int
	// Sinks receive fired/resolved events (while delivery is enabled).
	Sinks []Sink
	// Lookup resolves a job's current fingerprint — the tsdb store's
	// JobFingerprint method. Required.
	Lookup func(job uint64) (Fingerprint, bool)
	// Logger receives the engine's own lines (rule load, restore).
	Logger *slog.Logger
}

// Engine evaluates the rule set against job fingerprints once per
// ingested batch and runs the per-(job,rule) alert state machines:
// min-duration before fire, clear-duration before resolve, and
// exactly one firing alert per pair at a time (dedup). All timing is
// sample time. The engine is safe for concurrent ObserveBatch calls.
type Engine struct {
	rules  []Rule
	look   func(uint64) (Fingerprint, bool)
	ring   *ring
	sinks  []Sink
	logger *slog.Logger

	// deliver gates sink fan-out: a follower tracks state silently and
	// only starts delivering when promoted, so a failover never
	// double-pages — the promoted standby carries on exactly where the
	// primary's state says it was.
	deliver atomic.Bool

	shards []alertShard

	scratch sync.Pool // *obsScratch, amortizing per-batch grouping

	samples    atomic.Int64
	batches    atomic.Int64
	evals      atomic.Int64
	fired      atomic.Int64
	resolved   atomic.Int64
	suppressed atomic.Int64
	active     atomic.Int64
	lastUnix   atomic.Int64 // newest sample timestamp observed
	lastWall   atomic.Int64 // wall-clock unix of the last ObserveBatch

	firedByRule    []atomic.Int64
	resolvedByRule []atomic.Int64
}

const alertShards = 64

// alertShard stripes the per-job alert states the same way tsdb
// stripes job analytics, so concurrent workers rarely contend.
type alertShard struct {
	mu   sync.Mutex
	jobs map[uint64]*jobAlerts
}

// jobAlerts is one job's state machines, indexed by rule position.
type jobAlerts struct {
	states []ruleState
}

// ruleState is one (job, rule) hysteresis machine. condSince is the
// sample time the condition started holding (0: not holding);
// clearSince mirrors it for the resolve side while firing.
type ruleState struct {
	condSince  int64
	clearSince int64
	firing     bool
	firedUnix  int64
	node       int
	value      float64
	threshold  float64
	trace      string
	count      int64
}

// obsScratch is the reusable per-batch grouping buffer.
type obsScratch struct {
	idx  map[uint64]int32
	jobs []batchJob
}

// batchJob is one distinct job in a batch: the reporting node and the
// newest sample timestamp the batch carries for it.
type batchJob struct {
	id   uint64
	node int
	last int64
}

// NewEngine builds an engine. Delivery starts enabled; a replicated
// follower disables it via SetDeliver until promotion.
func NewEngine(cfg Config) *Engine {
	rules := cfg.Rules
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	e := &Engine{
		rules:          rules,
		look:           cfg.Lookup,
		ring:           newRing(cfg.RingSize),
		sinks:          cfg.Sinks,
		logger:         obs.Component(cfg.Logger, "anomaly"),
		shards:         make([]alertShard, alertShards),
		firedByRule:    make([]atomic.Int64, len(rules)),
		resolvedByRule: make([]atomic.Int64, len(rules)),
	}
	for i := range e.shards {
		e.shards[i].jobs = map[uint64]*jobAlerts{}
	}
	e.scratch.New = func() any {
		return &obsScratch{idx: map[uint64]int32{}}
	}
	e.deliver.Store(true)
	e.logger.Info("anomaly detection enabled",
		slog.Int("rules", len(rules)),
		slog.String("spec", FormatRules(rules)))
	return e
}

// Rules returns the engine's rule set (callers must not mutate it).
func (e *Engine) Rules() []Rule { return e.rules }

// SetDeliver enables or disables sink delivery. State tracking and the
// event ring are unaffected — a follower records everything and stays
// silent.
func (e *Engine) SetDeliver(on bool) { e.deliver.Store(on) }

// Delivering reports whether sink delivery is enabled.
func (e *Engine) Delivering() bool { return e.deliver.Load() }

// mix is the same splitmix64 finalizer tsdb uses for shard hashing.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (e *Engine) shard(job uint64) *alertShard {
	return &e.shards[mix(job)&(alertShards-1)]
}

// ObserveBatch runs detection for one applied batch: group the batch's
// samples by job, look up each job's fingerprint (already updated by
// the tsdb append), evaluate every rule, and advance the alert state
// machines. traceID is the batch's trace ID; transitions it triggers
// carry it. The per-sample cost is O(1) map work amortized through a
// pooled scratch buffer — rule evaluation happens per (job, batch),
// not per sample.
func (e *Engine) ObserveBatch(samples []trace.PowerSample, traceID string) {
	if len(samples) == 0 {
		return
	}
	sc := e.scratch.Get().(*obsScratch)
	// Agents ship a batch grouped by job, so the previous sample's entry
	// (prev, -1 before the first) usually serves and the map is asked
	// once per run of equal job IDs.
	prev := int32(-1)
	for i := range samples {
		smp := &samples[i]
		if smp.JobID == 0 {
			continue // idle/system samples carry no job to characterize
		}
		if prev < 0 || sc.jobs[prev].id != smp.JobID {
			j, ok := sc.idx[smp.JobID]
			if !ok {
				j = int32(len(sc.jobs))
				sc.idx[smp.JobID] = j
				sc.jobs = append(sc.jobs, batchJob{id: smp.JobID, node: smp.Node, last: smp.Unix})
			}
			prev = j
		}
		if bj := &sc.jobs[prev]; smp.Unix > bj.last {
			bj.last = smp.Unix
			bj.node = smp.Node
		}
	}
	var events []Event
	for i := range sc.jobs {
		events = e.observeJob(&sc.jobs[i], traceID, events)
	}
	e.samples.Add(int64(len(samples)))
	e.batches.Add(1)
	var newest int64
	for i := range sc.jobs {
		if sc.jobs[i].last > newest {
			newest = sc.jobs[i].last
		}
	}
	if newest > e.lastUnix.Load() {
		e.lastUnix.Store(newest)
	}
	e.lastWall.Store(time.Now().Unix())
	clear(sc.idx)
	sc.jobs = sc.jobs[:0]
	e.scratch.Put(sc)
	e.publish(events)
}

// observeJob advances one job's state machines and appends any
// transitions to events.
func (e *Engine) observeJob(bj *batchJob, traceID string, events []Event) []Event {
	fp, ok := e.look(bj.id)
	if !ok || fp.N == 0 {
		return events
	}
	now := bj.last
	if fp.Last > now {
		now = fp.Last
	}
	e.evals.Add(int64(len(e.rules)))
	sh := e.shard(bj.id)
	sh.mu.Lock()
	ja := sh.jobs[bj.id]
	if ja == nil {
		ja = &jobAlerts{states: make([]ruleState, len(e.rules))}
		sh.jobs[bj.id] = ja
	}
	for i := range e.rules {
		r := &e.rules[i]
		st := &ja.states[i]
		active, value, threshold := r.Eval(&fp)
		if active {
			st.clearSince = 0
			if st.condSince == 0 {
				st.condSince = now
			}
			switch {
			case !st.firing && now-st.condSince >= int64(r.MinDuration/time.Second):
				st.firing = true
				st.firedUnix = now
				st.node = bj.node
				st.value, st.threshold = value, threshold
				st.trace = traceID
				st.count++
				e.fired.Add(1)
				e.firedByRule[i].Add(1)
				e.active.Add(1)
				events = append(events, Event{
					Type: EventFire, Rule: r.Name, Detector: r.Detector, Severity: r.Severity,
					Job: bj.id, Node: bj.node, Unix: now,
					Value: value, Threshold: threshold, Trace: traceID,
				})
			case st.firing:
				// Already firing: the pair is deduplicated — refresh the
				// live numbers and count the suppressed duplicate.
				st.value, st.threshold = value, threshold
				e.suppressed.Add(1)
			}
		} else {
			st.condSince = 0
			if st.firing {
				if st.clearSince == 0 {
					st.clearSince = now
				}
				if now-st.clearSince >= int64(r.ResolveAfter/time.Second) {
					st.firing = false
					e.resolved.Add(1)
					e.resolvedByRule[i].Add(1)
					e.active.Add(-1)
					events = append(events, Event{
						Type: EventResolve, Rule: r.Name, Detector: r.Detector, Severity: r.Severity,
						Job: bj.id, Node: bj.node, Unix: now,
						Value: value, Threshold: threshold,
						FiredUnix: st.firedUnix, Trace: traceID,
					})
					st.clearSince = 0
					st.firedUnix = 0
				}
			}
		}
	}
	sh.mu.Unlock()
	return events
}

// publish stamps, stores, and fans out a batch's transitions.
func (e *Engine) publish(events []Event) {
	for i := range events {
		events[i].Message = message(&events[i])
		ev := e.ring.append(events[i])
		if !e.deliver.Load() {
			continue
		}
		for _, s := range e.sinks {
			s.Send(ev)
		}
	}
}

// Events returns ring events matching f, newest first.
func (e *Engine) Events(f Filter) []Event { return e.ring.events(f) }

// Subscribe attaches a streaming consumer to the event ring.
func (e *Engine) Subscribe(depth int) (uint64, <-chan Event) { return e.ring.subscribe(depth) }

// Unsubscribe detaches a streaming consumer.
func (e *Engine) Unsubscribe(id uint64) { e.ring.unsubscribe(id) }

// Active returns the currently firing alerts, ordered by job then rule.
func (e *Engine) Active() []Alert {
	var out []Alert
	for si := range e.shards {
		sh := &e.shards[si]
		sh.mu.Lock()
		for job, ja := range sh.jobs {
			for i := range ja.states {
				st := &ja.states[i]
				if !st.firing {
					continue
				}
				r := &e.rules[i]
				out = append(out, Alert{
					Rule: r.Name, Detector: r.Detector, Severity: r.Severity,
					Job: job, Node: st.node, FiredUnix: st.firedUnix,
					LastUnix: e.lastUnix.Load(), Value: st.value,
					Threshold: st.threshold, Trace: st.trace, Count: st.count,
				})
			}
		}
		sh.mu.Unlock()
	}
	sortAlerts(out)
	return out
}

func sortAlerts(a []Alert) {
	// Insertion sort: active-alert lists are small, and this keeps the
	// function allocation-free.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && (a[j].Job < a[j-1].Job || (a[j].Job == a[j-1].Job && a[j].Rule < a[j-1].Rule)); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Fingerprint exposes a job's current fingerprint through the engine's
// lookup — the /v1/anomalies?job=N&fingerprint=1 path.
func (e *Engine) Fingerprint(job uint64) (Fingerprint, bool) {
	if e.look == nil {
		return Fingerprint{}, false
	}
	return e.look(job)
}

// Stats is the engine's counter snapshot for /metrics and /readyz.
type Stats struct {
	Rules          int
	Jobs           int
	Samples        int64
	Batches        int64
	Evals          int64
	Fired          int64
	Resolved       int64
	Suppressed     int64
	Active         int64
	Events         uint64
	EventsEvicted  uint64
	EventsStored   int
	LastSampleUnix int64
	LastObsWall    int64
	FiredByRule    []int64
	ResolvedByRule []int64
}

// Snapshot returns the current counters.
func (e *Engine) Snapshot() Stats {
	jobs := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		jobs += len(sh.jobs)
		sh.mu.Unlock()
	}
	appended, evicted, stored := e.ring.stats()
	st := Stats{
		Rules:          len(e.rules),
		Jobs:           jobs,
		Samples:        e.samples.Load(),
		Batches:        e.batches.Load(),
		Evals:          e.evals.Load(),
		Fired:          e.fired.Load(),
		Resolved:       e.resolved.Load(),
		Suppressed:     e.suppressed.Load(),
		Active:         e.active.Load(),
		Events:         appended,
		EventsEvicted:  evicted,
		EventsStored:   stored,
		LastSampleUnix: e.lastUnix.Load(),
		LastObsWall:    e.lastWall.Load(),
		FiredByRule:    make([]int64, len(e.rules)),
		ResolvedByRule: make([]int64, len(e.rules)),
	}
	for i := range e.rules {
		st.FiredByRule[i] = e.firedByRule[i].Load()
		st.ResolvedByRule[i] = e.resolvedByRule[i].Load()
	}
	return st
}

// SinkHealths returns every sink's health, for /readyz and /metrics.
func (e *Engine) SinkHealths() []SinkHealth {
	out := make([]SinkHealth, 0, len(e.sinks))
	for _, s := range e.sinks {
		out = append(out, s.Health())
	}
	return out
}

// Close shuts down the sinks.
func (e *Engine) Close() {
	for _, s := range e.sinks {
		s.Close()
	}
}
