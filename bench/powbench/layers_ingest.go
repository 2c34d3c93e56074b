package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hpcpower/internal/admit"
	"hpcpower/internal/anomaly"
	"hpcpower/internal/obs"
	"hpcpower/internal/repl"
	"hpcpower/internal/ship"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/wal"
)

// walRecord mirrors the payload the server logs per batch (serve's
// unexported walBody), so the direct calls pay the same encode.
type walRecord struct {
	Agent   string              `json:"agent,omitempty"`
	Seq     uint64              `json:"seq,omitempty"`
	Samples []trace.PowerSample `json:"samples"`
	PLSN    uint64              `json:"plsn,omitempty"`
	Trace   string              `json:"trace,omitempty"`
}

// queued is what the direct pipeline hands its apply worker.
type queued struct {
	samples             []trace.PowerSample
	trace               string
	pop, applied, found time.Time
	done                chan struct{}
}

// pipeline is the ingest path rebuilt from the layers' public
// constructors, called in the order serve calls them: decode → bucket +
// limiter → dedup mark → WAL encode + append → queue → (worker: apply →
// detect) ∥ fsync wait → release.
type pipeline struct {
	store   *tsdb.Store
	dedup   *tsdb.Deduper
	limiter *admit.Limiter
	buckets *admit.Buckets
	queue   *admit.Queue[*queued]
	log     *wal.Log // nil without durability
	anom    *anomaly.Engine
	stopped chan struct{}
}

func newPipeline(dir string, durable bool, policy wal.SyncPolicy, detect bool) (*pipeline, error) {
	acfg := admit.Config{}.WithDefaults()
	p := &pipeline{
		store:   tsdb.New(tsdb.DefaultConfig()),
		dedup:   tsdb.NewDeduper(tsdb.DedupConfig{}),
		limiter: admit.NewLimiter(acfg, nil),
		buckets: admit.NewBuckets(acfg, nil),
		stopped: make(chan struct{}),
	}
	p.queue = admit.NewQueue(admit.QueueConfig[*queued]{Target: acfg.Target, Interval: acfg.Interval, Capacity: 256})
	if detect {
		p.anom = anomaly.NewEngine(anomaly.Config{Lookup: p.store.JobFingerprint})
	}
	if durable {
		var err error
		if p.log, err = wal.Open(dir, wal.Options{Policy: policy, SegmentBytes: walSegmentBytes}); err != nil {
			return nil, err
		}
	}
	go func() {
		defer close(p.stopped)
		for {
			qb, ok := p.queue.Pop()
			if !ok {
				return
			}
			qb.pop = time.Now()
			_ = p.store.Append(qb.samples) // validated by decode; counted by the Ingested check
			qb.applied = time.Now()
			if p.anom != nil {
				p.anom.ObserveBatch(qb.samples, qb.trace)
			}
			qb.found = time.Now()
			qb.done <- struct{}{}
		}
	}()
	return p, nil
}

func (p *pipeline) close() error {
	p.queue.Close(true)
	<-p.stopped
	if p.anom != nil {
		p.anom.Close()
	}
	if p.log != nil {
		return p.log.Close()
	}
	return nil
}

// ingest runs one body through the pipeline, adds every stage to st and
// its spans (starting at base, where the serve span starts) to sl, and returns
// the wall time of the whole sequence.
func (p *pipeline) ingest(body []byte, traceID string, st stageSet, sl *spanLog, base int64) (time.Duration, error) {
	t0 := time.Now()
	var batch trace.SampleBatch
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
		return 0, err
	}
	if err := batch.Validate(); err != nil {
		return 0, err
	}
	t1 := time.Now()
	if ok, _ := p.buckets.Allow(batch.AgentID); !ok || !p.limiter.Acquire() {
		return 0, fmt.Errorf("direct pipeline refused a batch")
	}
	t2 := time.Now()
	if dup, _ := p.dedup.Mark(batch.AgentID, batch.Seq); dup {
		return 0, fmt.Errorf("direct pipeline saw a duplicate")
	}
	t3 := time.Now()
	t3a, lsn := t3, uint64(0)
	if p.log != nil {
		rec, err := json.Marshal(walRecord{Agent: batch.AgentID, Seq: batch.Seq, Samples: batch.Samples, Trace: traceID})
		if err != nil {
			return 0, err
		}
		t3a = time.Now()
		if lsn, err = p.log.Append(rec); err != nil {
			return 0, err
		}
	}
	t4 := time.Now()
	qb := &queued{samples: batch.Samples, trace: traceID, done: make(chan struct{}, 1)}
	if err := p.queue.Push(qb); err != nil {
		return 0, err
	}
	t5 := time.Now()
	if p.log != nil {
		if err := p.log.WaitDurable(lsn); err != nil {
			return 0, err
		}
	}
	t6 := time.Now()
	<-qb.done
	t7 := time.Now()
	p.limiter.Release(t7.Sub(t0))
	t8 := time.Now()

	st.add("decode", t1.Sub(t0))
	st.add("admit", t2.Sub(t1)+t8.Sub(t7))
	st.add("dedup", t3.Sub(t2))
	st.add("queue", qb.pop.Sub(t4))
	st.add("apply", qb.applied.Sub(qb.pop))
	if p.anom != nil {
		st.add("detect", qb.found.Sub(qb.applied))
	}
	if p.log != nil {
		st.add("wal_encode", t3a.Sub(t3))
		st.add("wal_append", t4.Sub(t3a))
		st.add("fsync_wait", t6.Sub(t5))
	}
	at := func(t time.Time) int64 { return base + int64(t.Sub(t0)) }
	sl.add(traceID, "decode", "serve", at(t0), at(t1))
	sl.add(traceID, "admit", "serve", at(t1), at(t2))
	sl.add(traceID, "dedup", "serve", at(t2), at(t3))
	if p.log != nil {
		sl.add(traceID, "wal_append", "serve", at(t3), at(t4))
		sl.add(traceID, "fsync_wait", "serve", at(t5), at(t6))
	}
	sl.add(traceID, "queue", "serve", at(t4), at(qb.pop))
	sl.add(traceID, "apply", "serve", at(qb.pop), at(qb.applied))
	if p.anom != nil {
		sl.add(traceID, "detect", "serve", at(qb.applied), at(qb.found))
	}
	return t8.Sub(t0), nil
}

// Layers of an ingest workload, in two passes over the budget:
//
//  1. the workload as it is (two agents, untraced) for what only shows
//     under its own concurrency: ack tail, fsyncs per batch, queue
//     sojourn, replication lag, encode share;
//  2. one agent, every other batch carrying an X-Trace-Id and timed three
//     ways — loopback POST, in-process handler, direct layer calls —
//     against three identically configured instances; the batches in
//     between go untraced over the loopback only, interleaved so that
//     both kinds meet the same caches: their ratio is what tracing costs.
func (in *ingestInst) Layers(budget time.Duration, m layerMetrics) error {
	// Pass 1.
	var lat []float64
	var busy time.Duration
	for start := time.Now(); time.Since(start) < budget*35/100; {
		r, err := in.Round()
		if err != nil {
			return err
		}
		lat = append(lat, r.lat...)
		busy += r.busy
	}
	reg := scrape(in.node.srv.Registry())
	m["loadgen.ops_attempted"] += float64(len(lat))
	m["serve.ack_p50_ms"] = median(lat)
	m["serve.ack_p99_ms"] = percentile(lat, 99)
	m["serve.refused_total"] = reg["powserved_batches_rejected_total"]
	m["serve.duplicates_total"] = reg["powserved_batches_duplicate_total"]
	m["admit.shed_total"] = reg["powserved_admit_queue_shed_total"] + reg["powserved_admit_refused_total"]
	m["admit.queue_sojourn_mean_us"] = histMean(reg, "powserved_admit_queue_sojourn_seconds") * 1e6
	m["tsdb.memory_bytes"] = float64(in.node.store.MemoryBytes())
	var enc time.Duration
	for _, a := range in.agents {
		enc += a.encode
	}
	m["loadgen.encode_share"] = enc.Seconds() / (busy.Seconds() * float64(len(in.agents)))
	if in.cfg.durable {
		m["wal.fsyncs_per_batch"] = reg["powserved_wal_fsyncs_total"] / reg["powserved_wal_appends_total"]
		m["wal.group_commit_mean_records"] = histMean(reg, "powserved_group_commit_records")
		walBytes, err := dirBytes(in.node.dir, "wal-")
		if err != nil {
			return err
		}
		m["wal.bytes_per_sample"] = float64(walBytes) / float64(in.acked)
	}
	if in.node.anom != nil {
		m["anomaly.alerts_fired"] = float64(in.node.anom.Snapshot().Fired)
	}
	if in.fol != nil {
		m["repl.lag_records_max"] = in.lagMax
		m["repl.follower_apply_mean_us"] = histMean(scrape(in.fol.srv.Registry()), "powserved_repl_apply_seconds") * 1e6
	}

	// Pass 2.
	twin, twinFol, err := in.boot(in.cfg.follower)
	if err != nil {
		return err
	}
	defer func() {
		if twinFol != nil {
			twinFol.Close()
		}
		twin.Close()
	}()
	var solo *node // the twin without its follower: what semi-sync adds
	if in.cfg.follower {
		if solo, _, err = in.boot(false); err != nil {
			return err
		}
		defer solo.Close()
	}
	pdir := ""
	if in.cfg.durable {
		if pdir, err = in.e.scratch("direct"); err != nil {
			return err
		}
	}
	pipe, err := newPipeline(pdir, in.cfg.durable, in.cfg.policy, in.cfg.anomaly)
	if err != nil {
		return err
	}
	defer pipe.close()
	st, sl := stageSet{}, &spanLog{}
	var wire float64
	traced := 0
	a := in.agents[0]
	var plain []float64
	untraced := func() error {
		d, err := a.post(a.next(), "")
		plain = append(plain, us(d))
		in.acked += agentNodes
		return err
	}
	for start := time.Now(); time.Since(start) < budget*65/100; traced++ {
		if traced%2 == 0 {
			if err := untraced(); err != nil {
				return err
			}
		}
		body := a.next()
		wire += float64(len(body))
		id := obs.NewTraceID()
		dHTTP, err := a.post(body, id)
		if err != nil {
			return err
		}
		in.acked += agentNodes
		rec, dServe := twin.serveInProcess(http.MethodPost, "/v1/samples", body, id)
		if rec.Code != http.StatusAccepted {
			return statusErr("in-process ingest", rec.Code, rec.Body.Bytes())
		}
		serveAt := int64(dHTTP-dServe) / 2
		sl.add(id, "http", "", 0, int64(dHTTP))
		sl.add(id, "serve", "http", serveAt, serveAt+int64(dServe))
		// What the follower adds is the handler's time with it less the
		// handler's time without it: a stage of its own, repl_wait, at
		// the end of the serve span.
		dLocal := dServe
		if solo != nil {
			var rec *httptest.ResponseRecorder
			rec, dLocal = solo.serveInProcess(http.MethodPost, "/v1/samples", body, id)
			if rec.Code != http.StatusAccepted {
				return statusErr("in-process ingest without follower", rec.Code, rec.Body.Bytes())
			}
			st.add("repl_wait", dServe-dLocal)
			sl.add(id, "repl_wait", "serve", serveAt+int64(min(dLocal, dServe)), serveAt+int64(dServe))
		}
		dDirect, err := pipe.ingest(body, id, st, sl, serveAt)
		if err != nil {
			return err
		}
		st.add("http", dHTTP)
		st.add("serve", dServe)
		st.add("direct", dDirect)
		st.add("http_self", dHTTP-dServe)
		st.add("serve_self", dLocal-dDirect)
		if traced%2 == 1 {
			if err := untraced(); err != nil {
				return err
			}
		}
	}
	m["loadgen.ops_attempted"] += float64(traced + len(plain))
	if got, want := pipe.store.Ingested(), int64(traced*agentNodes); got != want || twin.store.Ingested() != want {
		return fmt.Errorf("traced pass: direct pipeline holds %d samples, in-process twin %d, want %d", got, twin.store.Ingested(), want)
	}
	if err := sl.write(in.e.out, in.e.name); err != nil {
		return err
	}
	m["serve.http_us_per_batch"] = st.med("http")
	m["serve.handler_us_per_batch"] = st.med("serve")
	m["serve.http_overhead_us"] = st.med("http_self")
	m["serve.self_us_per_batch"] = st.med("serve_self")
	m["trace.decode_us_per_batch"] = st.med("decode")
	m["trace.wire_bytes_per_sample"] = wire / float64(traced*agentNodes)
	m["admit.acquire_release_ns"] = st.med("admit") * 1e3
	m["admit.queue_handoff_us"] = st.med("queue")
	m["tsdb.dedup_mark_ns"] = st.med("dedup") * 1e3
	m["tsdb.append_ns_per_sample"] = st.med("apply") * 1e3 / agentNodes
	m["anomaly.observe_ns_per_sample"] = st.med("detect") * 1e3 / agentNodes
	m["wal.encode_us_per_batch"] = st.med("wal_encode")
	m["wal.append_us_per_batch"] = st.med("wal_append")
	m["repl.sync_wait_us"] = st.med("repl_wait")
	// The budget: the stages on the blocking path must add up to the ack
	// they explain. Apply and detect overlap the fsync wait, so the
	// direct sequence's own wall time stands for the union of them all.
	m["loadgen.stage_budget_ratio"] = (max(st.med("http_self"), 0) + max(st.med("serve_self"), 0) + max(st.med("repl_wait"), 0) + st.med("direct")) / st.med("http")
	m["loadgen.trace_overhead_ratio"] = st.med("http") / median(plain)

	return in.microLayers(a.body, m)
}

// microLayers times the layers' public calls that are not a stage of
// the ack path (or need many repetitions), with the workload's own batch.
func (in *ingestInst) microLayers(body []byte, m layerMetrics) error {
	var batch trace.SampleBatch
	if err := json.Unmarshal(body, &batch); err != nil {
		return err
	}
	m["trace.decode_allocs_per_batch"] = mallocsPer(50, func() {
		var b trace.SampleBatch
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&b) // decoded above
	})
	scratch := tsdb.New(tsdb.DefaultConfig())
	m["tsdb.append_allocs_per_batch"] = mallocsPer(50, func() { _ = scratch.Append(batch.Samples) })

	q := admit.NewQueue(admit.QueueConfig[int]{Capacity: 256})
	m["admit.queue_push_pop_ns"] = nsPer(20000, func() {
		_ = q.Push(1)
		q.Pop()
	})
	h := obs.NewHistogram(obs.DefaultLatencyBuckets)
	m["obs.histogram_observe_ns"] = nsPer(200000, func() { h.Observe(0.0012) })
	var scrapes []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		in.node.srv.Registry().WritePrometheus(io.Discard)
		scrapes = append(scrapes, ms(time.Since(t0)))
	}
	m["obs.scrape_ms"] = median(scrapes)

	if in.cfg.durable {
		rec, err := json.Marshal(walRecord{Agent: batch.AgentID, Seq: batch.Seq, Samples: batch.Samples})
		if err != nil {
			return err
		}
		frame := repl.AppendFrame(nil, repl.FrameData, 1, rec)
		m["repl.frame_encode_ns"] = nsPer(2000, func() { frame = repl.AppendFrame(frame[:0], repl.FrameData, 1, rec) })
		stream := append(repl.AppendHeader(nil, 1, 1), frame...)
		var derr error
		m["repl.frame_decode_ns"] = nsPer(2000, func() {
			sr, err := repl.NewStreamReader(bytes.NewReader(stream))
			if err == nil {
				_, err = sr.Next()
			}
			if err != nil {
				derr = err
			}
		})
		if derr != nil {
			return derr
		}
		if m["wal.read_range_tail_us"], m["wal.wait_durable_us"], err = in.walAlone(rec); err != nil {
			return err
		}
	}
	var err error
	m["ship.overhead_us_per_batch"], err = shipOverhead(batch.Samples, body)
	return err
}

// walAlone times two things on a log of its own: what a durable append
// costs one writer under wal.SyncBatch (Append + WaitDurable, the fsync
// the ingest workloads keep off their ack path), and, once a segment is
// full, reading its newest record back the way the replication source
// does for every burst.
func (in *ingestInst) walAlone(rec []byte) (readTailUS, waitDurableUS float64, err error) {
	dir, err := in.e.scratch("wal-alone")
	if err != nil {
		return 0, 0, err
	}
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncBatch, SegmentBytes: walSegmentBytes})
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	var last uint64
	var waits []float64
	for n := 0; n+len(rec) < walSegmentBytes*9/10; n += len(rec) {
		if last, err = log.Append(rec); err != nil {
			return 0, 0, err
		}
		if len(waits) < 100 {
			t0 := time.Now()
			if err := log.WaitDurable(last); err != nil {
				return 0, 0, err
			}
			waits = append(waits, us(time.Since(t0)))
		}
	}
	readTailUS, err = medianOf(9, us, func() error {
		return log.ReadRange(last, last, func(uint64, wal.RecordType, []byte) error { return nil })
	})
	return readTailUS, median(waits), err
}

// shipOverhead is what the agent-side Shipper adds to a delivery:
// Enqueue → Flush against a stub that answers 202, less this harness's
// own POST of the same body to the same stub.
func shipOverhead(samples []trace.PowerSample, body []byte) (float64, error) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"accepted":512}`)
	}))
	defer stub.Close()
	sh := ship.New(ship.Config{URL: stub.URL, AgentID: "bench"})
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	var shipped, plain []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		sh.Enqueue(samples)
		if err := sh.Flush(context.Background()); err != nil {
			return 0, err
		}
		shipped = append(shipped, us(time.Since(t0)))
		t0 = time.Now()
		resp, err := hc.Post(stub.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		plain = append(plain, us(time.Since(t0)))
	}
	return median(shipped) - median(plain), nil
}

// nsPer is the mean time of fn over n calls, in ns.
func nsPer(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

// mallocsPer is the mean number of heap allocations of fn over n calls.
// Other goroutines must be idle while it runs.
func mallocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}
