package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"hpcpower"
	"hpcpower/internal/apps"
	"hpcpower/internal/block"
	"hpcpower/internal/cluster"
	"hpcpower/internal/mlearn"
	"hpcpower/internal/obs"
	"hpcpower/internal/rng"
	"hpcpower/internal/sched"
	"hpcpower/internal/stats"
	"hpcpower/internal/telemetry"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/wal"
)

// medianOf times fn n times and returns the median in the unit conv
// converts to.
func medianOf(n int, conv func(time.Duration) float64, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, conv(time.Since(t0)))
	}
	return median(xs), nil
}

// Layers of query-mixed: first the workload as it is (reader beside the
// writer) for per-kind latencies and the writer's side; then, with the
// writer stopped, straddling range reads timed three ways — loopback
// GET, in-process handler, and direct calls (merged read, of which the
// block decode, then the JSON encode of the answer).
func (q *queryInst) Layers(budget time.Duration, m layerMetrics) error {
	var rangeLat []float64
	extra := map[string][]float64{}
	for start := time.Now(); time.Since(start) < budget*4/10; {
		r, err := q.Round()
		if err != nil {
			return err
		}
		m["loadgen.ops_attempted"] += float64(r.ops)
		rangeLat = append(rangeLat, r.lat...)
		for k, v := range r.extra {
			extra[k] = append(extra[k], v...)
		}
	}
	q.haltWriter()
	m["serve.query_range_p50_ms"] = median(rangeLat)
	m["serve.query_range_p99_ms"], _ = tail(rangeLat)
	m["serve.query_agg_p50_ms"] = median(extra["agg_ms"])
	m["serve.query_dist_p50_ms"] = median(extra["dist_ms"])
	m["serve.predict_p50_ms"] = median(extra["predict_ms"])
	m["serve.job_power_p50_ms"] = median(extra["job_power_ms"])
	m["serve.writer_ack_p50_ms"] = median(extra["writer_ack_ms"])
	m["serve.writer_ack_p99_ms"], _ = tail(extra["writer_ack_ms"])
	m["loadgen.late_p99_ms"], _ = tail(extra["writer_late_ms"])
	m["tsdb.memory_bytes"] = float64(q.node.store.MemoryBytes())
	bst := q.blocks.Stats()
	m["block.bytes_per_sample"] = bst.BytesPerSample

	store, querier := q.node.store, q.blocks.Querier()
	frontier := TickUnix(q.front)
	st, sl := stageSet{}, &spanLog{}
	n := 0
	for start := time.Now(); time.Since(start) < budget*4/10; n++ {
		qu := query{kind: kindRange, method: http.MethodGet, node: q.rand(fleetNodes)}
		qu.from, qu.to = q.window(1)
		qu.target = fmt.Sprintf("/v1/query/range?node=%d&from=%d&to=%d", qu.node, TickUnix(qu.from), TickUnix(qu.to))
		id := obs.NewTraceID()
		dHTTP, _, err := q.do(qu)
		if err != nil {
			return err
		}
		rec, dServe := q.node.serveInProcess(http.MethodGet, qu.target, nil, id)
		if rec.Code != http.StatusOK {
			return statusErr("in-process query", rec.Code, rec.Body.Bytes())
		}
		t0 := time.Now()
		pts, _, err := store.QueryRange(qu.node, TickUnix(qu.from), TickUnix(qu.to))
		dMerge := time.Since(t0)
		if err != nil || len(pts) != windowTicks {
			return fmt.Errorf("direct QueryRange: %d points, err %v", len(pts), err)
		}
		t0 = time.Now()
		if _, _, err := querier.Range(qu.node, TickUnix(qu.from), frontier-1); err != nil {
			return err
		}
		dBlock := time.Since(t0)
		t0 = time.Now()
		err = json.NewEncoder(io.Discard).Encode(map[string]any{"node": qu.node, "frontier": frontier, "points": pts, "degraded": false})
		dEncode := time.Since(t0)
		if err != nil {
			return err
		}
		st.add("http", dHTTP)
		st.add("serve", dServe)
		st.add("tsdb_merge", dMerge)
		st.add("block_decode", dBlock)
		st.add("encode", dEncode)
		st.add("http_self", dHTTP-dServe)
		st.add("serve_self", dServe-dMerge-dEncode)
		at := int64(dHTTP-dServe) / 2
		sl.add(id, "http", "", 0, int64(dHTTP))
		sl.add(id, "serve", "http", at, at+int64(dServe))
		sl.add(id, "tsdb_merge", "serve", at, at+int64(dMerge))
		sl.add(id, "block_decode", "tsdb_merge", at, at+int64(dBlock))
		sl.add(id, "encode", "serve", at+int64(dMerge), at+int64(dMerge+dEncode))
	}
	m["loadgen.ops_attempted"] += float64(n)
	if err := sl.write(q.e.out, q.e.name); err != nil {
		return err
	}
	m["serve.query_http_us"] = st.med("http")
	m["serve.query_handler_us"] = st.med("serve")
	m["serve.query_http_overhead_us"] = st.med("http_self")
	m["serve.query_self_us"] = st.med("serve_self")
	m["serve.query_encode_us"] = st.med("encode")
	m["tsdb.query_range_merged_us"] = st.med("tsdb_merge")
	m["block.range_us"] = st.med("block_decode")
	m["loadgen.stage_budget_ratio"] = (max(st.med("http_self"), 0) + max(st.med("serve_self"), 0) + st.med("tsdb_merge") + st.med("encode")) / st.med("http")

	// One-layer timings on fixed windows: head only, blocks only.
	var err error
	headFrom, blockFrom := TickUnix(q.front), TickUnix(q.front-windowTicks)
	width := int64(windowTicks-1) * tickSeconds
	node := q.rand(fleetNodes)
	if m["tsdb.query_range_head_us"], err = medianOf(200, us, func() error {
		_, _, err := store.QueryRange(node, headFrom, headFrom+width)
		return err
	}); err != nil {
		return err
	}
	if m["block.range_agg_us"], err = medianOf(200, us, func() error {
		_, _, err := querier.RangeAgg(node, blockFrom, blockFrom+width, 300)
		return err
	}); err != nil {
		return err
	}
	m["block.range_allocs"] = mallocsPer(50, func() { querier.Range(node, blockFrom, blockFrom+width) })
	if m["block.quantiles_ms"], err = medianOf(5, ms, func() error {
		_, _, err := querier.Quantiles(nil, blockFrom, blockFrom+width, []float64{0.5, 0.8, 0.95})
		return err
	}); err != nil {
		return err
	}
	feat := mlearn.Features{User: q.users[0], Nodes: 8, WallHours: 12}
	m["mlearn.bdt_predict_ns"] = nsPer(100000, func() { q.model.Predict(feat) })

	// Chunk codec on one 2 h window of one node, and one flush of one
	// 2 h window of the whole fleet.
	pts := make([]block.Point, 120)
	for i := range pts {
		pts[i] = block.Point{T: TickUnix(i), V: q.fleet.PowerAt(node, i)}
	}
	chunk := block.EncodeChunk(pts)
	m["block.encode_ns_per_point"] = nsPer(2000, func() { block.EncodeChunk(pts) }) / float64(len(pts))
	m["block.decode_ns_per_point"] = nsPer(2000, func() { block.DecodeChunk(chunk) }) / float64(len(pts))
	dir, err := q.e.scratch("flush")
	if err != nil {
		return err
	}
	bs, err := block.Open(block.Config{Dir: dir})
	if err != nil {
		return err
	}
	fstore := tsdb.New(tsdb.DefaultConfig())
	fstore.AttachBlocks(bs)
	var buf []trace.PowerSample
	for t := 0; t < 120; t++ {
		for ag := 0; ag < fleetAgents; ag++ {
			buf = q.fleet.Batch(buf, ag, t)
			if err := fstore.Append(buf); err != nil {
				return err
			}
		}
	}
	t0 := time.Now()
	if sealed, err := fstore.FlushBlocks(TickUnix(120)); err != nil || sealed != 1 {
		return fmt.Errorf("flush sealed %d windows, err %v", sealed, err)
	}
	m["block.flush_ms"] = ms(time.Since(t0))
	return nil
}

// Layers of the recover workloads: the WAL and the snapshot read apart.
// The records in the image's WAL are replayed with a no-op, decoded and
// applied; the store they build (on the clean image, whose WAL is mostly
// reaped, the store of a node restarted from it) has its state exported,
// encoded, written, read back, decoded and restored — each step alone.
func (r *recoverInst) Layers(budget time.Duration, m layerMetrics) error {
	// The workload itself, for the operator's number.
	var restarts []float64
	for start := time.Now(); time.Since(start) < budget/2 || len(restarts) < 2; {
		rs, err := r.Round()
		if err != nil {
			return err
		}
		restarts = append(restarts, rs.lat...)
	}
	m["loadgen.ops_attempted"] = float64(len(restarts))
	m["serve.recover_ms"] = median(restarts)

	dir, err := r.e.scratch("layers")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(r.image, dir); err != nil {
		return err
	}
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone, SegmentBytes: walSegmentBytes})
	if err != nil {
		return err
	}
	var bodies [][]byte
	t0 := time.Now()
	err = log.Replay(func(_ uint64, typ wal.RecordType, body []byte) error {
		if typ == wal.RecordData {
			bodies = append(bodies, append([]byte(nil), body...))
		}
		return nil
	})
	replay := time.Since(t0)
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if len(bodies) == 0 {
		return fmt.Errorf("the image's WAL holds no record")
	}
	m["wal.replay_ns_per_record"] = float64(replay) / float64(len(bodies))
	store := tsdb.New(tsdb.DefaultConfig())
	st := stageSet{}
	for _, body := range bodies {
		var rec walRecord
		t0 := time.Now()
		if err := json.Unmarshal(body, &rec); err != nil {
			return err
		}
		t1 := time.Now()
		if err := store.Append(rec.Samples); err != nil {
			return err
		}
		st.add("decode", t1.Sub(t0))
		st.add("apply", time.Since(t1))
	}
	m["serve.walbody_decode_us"] = st.med("decode")
	m["tsdb.append_ns_per_sample"] = st.med("apply") * 1e3 / agentNodes

	if r.clean {
		ndir, err := r.e.scratch("layers-node")
		if err != nil {
			return err
		}
		defer os.RemoveAll(ndir)
		if err := copyDir(r.image, ndir); err != nil {
			return err
		}
		n, err := bootNode(ndir, nodeCfg{model: r.model, durable: true, policy: wal.SyncBatch, anomaly: true})
		if err != nil {
			return err
		}
		defer n.Close()
		store = n.store
	}
	var state *tsdb.StoreState
	if m["tsdb.export_state_ms"], err = medianOf(3, ms, func() error { state = store.ExportState(); return nil }); err != nil {
		return err
	}
	var payload []byte
	if m["tsdb.state_encode_ms"], err = medianOf(3, ms, func() error { payload, err = json.Marshal(state); return err }); err != nil {
		return err
	}
	m["tsdb.state_bytes"] = float64(len(payload))
	snapDir, err := r.e.scratch("snap")
	if err != nil {
		return err
	}
	defer os.RemoveAll(snapDir)
	lsn := uint64(0)
	if m["wal.snapshot_write_ms"], err = medianOf(3, ms, func() error { lsn++; return wal.WriteSnapshot(snapDir, lsn, payload) }); err != nil {
		return err
	}
	if m["wal.snapshot_read_ms"], err = medianOf(3, ms, func() error {
		_, got, found, _, err := wal.LatestSnapshot(snapDir)
		if err == nil && (!found || len(got) != len(payload)) {
			err = fmt.Errorf("snapshot read back %d bytes, wrote %d", len(got), len(payload))
		}
		return err
	}); err != nil {
		return err
	}
	var decoded tsdb.StoreState
	if m["tsdb.state_decode_ms"], err = medianOf(3, ms, func() error {
		decoded = tsdb.StoreState{}
		return json.Unmarshal(payload, &decoded)
	}); err != nil {
		return err
	}
	if m["tsdb.restore_state_ms"], err = medianOf(3, ms, func() error {
		return tsdb.New(tsdb.DefaultConfig()).RestoreState(&decoded)
	}); err != nil {
		return err
	}
	return nil
}

// Layers of analyze-offline: each package's share of the report.
func (a *analyzeInst) Layers(budget time.Duration, m layerMetrics) error {
	var reps []float64
	for start := time.Now(); time.Since(start) < budget/3 || len(reps) < 2; {
		r, err := a.Round()
		if err != nil {
			return err
		}
		reps = append(reps, r.lat...)
	}
	m["loadgen.ops_attempted"] = float64(len(reps))
	m["core.report_ms"] = median(reps)

	var err error
	if m["core.analyze_emmy_ms"], err = medianOf(5, ms, func() error { _, err := hpcpower.Analyze(a.emmy); return err }); err != nil {
		return err
	}
	if m["core.analyze_meggie_ms"], err = medianOf(5, ms, func() error { _, err := hpcpower.Analyze(a.meggie); return err }); err != nil {
		return err
	}
	var power, nodes []float64
	for i := range a.emmy.Jobs {
		power = append(power, float64(a.emmy.Jobs[i].AvgPowerPerNode))
		nodes = append(nodes, float64(a.emmy.Jobs[i].Nodes))
	}
	m["stats.spearman_ms"], _ = medianOf(9, ms, func() error { stats.Spearman(power, nodes); return nil })

	samples := mlearn.SamplesFromDataset(a.emmy)
	cfg := mlearn.DefaultEvalConfig(a.seed)
	bdt := mlearn.NewBDT(mlearn.DefaultTreeParams())
	if m["mlearn.bdt_fit_ms"], err = medianOf(5, ms, func() error { return bdt.Fit(samples) }); err != nil {
		return err
	}
	feat := samples[0].Features
	m["mlearn.bdt_predict_ns"] = nsPer(100000, func() { bdt.Predict(feat) })
	for name, factory := range map[string]func() mlearn.Model{
		"mlearn.bdt_eval_ms":  func() mlearn.Model { return mlearn.NewBDT(mlearn.DefaultTreeParams()) },
		"mlearn.knn_eval_ms":  func() mlearn.Model { return mlearn.NewKNN(mlearn.DefaultKNNParams()) },
		"mlearn.flda_eval_ms": func() mlearn.Model { return mlearn.NewFLDA(mlearn.DefaultFLDAParams()) },
	} {
		if m[name], err = medianOf(3, ms, func() error { _, err := mlearn.Evaluate(samples, factory, cfg); return err }); err != nil {
			return err
		}
	}

	// Generation, and its two engines on their own: the scheduler over
	// the generated submissions, the synthesizer on one 64-node, 10 h job.
	scale := a.scale / 4
	t0 := time.Now()
	small, err := hpcpower.GenerateEmmy(scale, studySeed)
	if err != nil {
		return err
	}
	m["gen.jobs_per_s"] = float64(len(small.Jobs)) / time.Since(t0).Seconds()
	reqs := make([]sched.Request, 0, len(a.emmy.Jobs))
	for i := range a.emmy.Jobs {
		j := &a.emmy.Jobs[i]
		reqs = append(reqs, sched.Request{ID: j.ID, User: j.User, App: j.App, Nodes: j.Nodes, ReqWall: j.ReqWall, Runtime: j.Runtime(), Submit: j.Submit})
	}
	if m["sched.simulate_ms"], err = medianOf(3, ms, func() error { _, err := sched.Simulate(a.emmy.Meta.TotalNodes, reqs); return err }); err != nil {
		return err
	}
	spec := cluster.Emmy()
	fleet := cluster.NewFleet(spec, rng.New(a.seed))
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i
	}
	const minutes = 600
	synth, err := medianOf(5, func(d time.Duration) float64 { return float64(d) }, func() error {
		_, err := telemetry.Synthesize(telemetry.Params{JobID: 1, App: apps.Catalog()[0], Spec: spec, NodeIDs: ids,
			Minutes: minutes, MeanPowerW: 150, Src: rng.New(a.seed)}, fleet, nil)
		return err
	})
	if err != nil {
		return err
	}
	m["telemetry.synth_ns_per_sample"] = synth / float64(minutes*len(ids))
	return nil
}
