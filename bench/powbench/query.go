package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"hpcpower/internal/block"
	"hpcpower/internal/core"
	"hpcpower/internal/mlearn"
	"hpcpower/internal/serve"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

// Shape of the query-mixed data set, in one-minute ticks.
const (
	preloadTicks = 3 * 1440 // three days go in through tsdb.Store.Append
	// headTicks stay in the rings above the flush frontier; everything
	// older is sealed into 2 h Gorilla blocks, so the working set (3 d)
	// is three times what the head rings (1 d) can hold. Half a day, not
	// a whole one: the writer appends behind it and must not push the
	// oldest head points out of the 1,440-point rings before a run ends.
	headTicks   = 720
	windowTicks = 360 // a dashboard asks for 6 h
	flushEvery  = 360 // preload seals complete windows this often
	// writerRate is the open-loop writer: 50 batches/s, one tick of the
	// fleet every 40 ms. At this rate it uses up the ring's spare half
	// day in 28 s, which bounds how long a run may measure.
	writerRate   = 50
	oracleEvery  = 100 // every 100th response is checked by brute force
	writerBudget = headTicks - 8
)

type queryKind int

const (
	kindRange queryKind = iota // raw 6 h of one node
	kindAgg                    // same, step=300
	kindDist                   // fleet-wide distribution over 6 h
	kindPredict
	kindJobPower
	numKinds
)

var kindName = [numKinds]string{"range", "agg", "dist", "predict", "job_power"}

type query struct {
	kind   queryKind
	method string
	target string
	body   []byte
	// what the oracle needs to recompute the answer
	node, from, to int // ticks, inclusive
	feat           mlearn.Features
	job            uint64
	jobSamples     int64
}

type queryInst struct {
	e       *env
	fleet   *Fleet
	model   *mlearn.BDT
	users   []string
	blocks  *block.Store
	node    *node
	hc      *http.Client
	rng     uint64
	deck    []int // query kinds left in the current deck
	preload int   // ticks loaded at set-up
	front   int   // flush frontier, as a tick
	issued  int
	checked int

	writers    [fleetAgents]*agent
	stopWriter chan struct{}
	writerDone chan struct{}
	wmu        sync.Mutex
	wlat       []float64 // writer ack latency from due time, ms
	wlate      []float64 // how late each batch was sent, ms
	wfailed    int64
	wacked     int64
	werr       error
}

func setupQuery(e *env) (instance, error) {
	q := &queryInst{e: e, fleet: NewFleet(e.seed), rng: mix64(e.seed ^ 0x9e3)}
	var err error
	if q.model, q.users, err = trainModel(e.seed, modelScale); err != nil {
		return nil, err
	}
	dir, err := e.scratch("blocks")
	if err != nil {
		return nil, err
	}
	if q.blocks, err = block.Open(block.Config{Dir: dir}); err != nil {
		return nil, err
	}
	store := tsdb.New(tsdb.DefaultConfig())
	store.AttachBlocks(q.blocks)
	q.preload = e.count(preloadTicks, headTicks+windowTicks)
	q.front = q.preload - headTicks
	var buf []trace.PowerSample
	for t := 0; t < q.preload; t++ {
		for ag := 0; ag < fleetAgents; ag++ {
			buf = q.fleet.Batch(buf, ag, t)
			if err := store.Append(buf); err != nil {
				return nil, err
			}
		}
		if (t+1)%flushEvery == 0 || t == q.preload-1 {
			cut := t + 1
			if cut > q.front {
				cut = q.front
			}
			if _, err := store.FlushBlocks(TickUnix(cut)); err != nil {
				return nil, err
			}
		}
	}
	// Build the 5 m and 1 h rollup tiers the background loop would.
	if _, err := q.blocks.CompactPending(); err != nil {
		return nil, err
	}
	if got := store.BlockFrontier(); got != TickUnix(q.front) {
		return nil, fmt.Errorf("flush frontier %d, want %d", got, TickUnix(q.front))
	}
	if q.node, err = bootNode("", nodeCfg{model: q.model, store: store}); err != nil {
		return nil, err
	}
	q.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	for id := range q.writers {
		q.writers[id] = newAgent(q.fleet, id, q.node.url)
		q.writers[id].tick = q.preload
	}
	return q, nil
}

func (q *queryInst) rand(n int) int {
	q.rng = mix64(q.rng)
	return int(q.rng % uint64(n))
}

// window picks a 6 h window: entirely below the flush frontier (blocks
// only), across it, or entirely above it (head only).
func (q *queryInst) window(where int) (from, to int) {
	switch where {
	case 0:
		from = q.rand(max(q.front-windowTicks, 1))
	case 1:
		from = q.front - windowTicks + 60 + q.rand(windowTicks-120)
	default:
		from = q.front + q.rand(q.preload-q.front-windowTicks+1)
	}
	return max(from, 0), from + windowTicks - 1
}

// deckSize queries hold the mix exactly: 60 raw range reads (a third
// each blocks only, straddling, head only), 15 of the same downsampled
// to 5 min, 10 fleet-wide distributions, 10 predictions, 5 job-power
// reads. A round is a whole number of shuffled decks, so every round
// carries the same work and only the order and the arguments vary.
const deckSize = 100

// nextQuery deals the next query of the deck, reshuffling when it is out.
func (q *queryInst) nextQuery() query {
	if len(q.deck) == 0 {
		for i := 0; i < deckSize; i++ {
			q.deck = append(q.deck, i)
		}
		for i := deckSize - 1; i > 0; i-- {
			j := q.rand(i + 1)
			q.deck[i], q.deck[j] = q.deck[j], q.deck[i]
		}
	}
	r := q.deck[len(q.deck)-1]
	q.deck = q.deck[:len(q.deck)-1]
	switch {
	case r < 75:
		qu := query{kind: kindRange, method: http.MethodGet, node: q.rand(fleetNodes)}
		qu.from, qu.to = q.window(r % 3)
		qu.target = fmt.Sprintf("/v1/query/range?node=%d&from=%d&to=%d", qu.node, TickUnix(qu.from), TickUnix(qu.to))
		if r >= 60 {
			qu.kind = kindAgg
			qu.target += "&step=300"
		}
		return qu
	case r < 85:
		qu := query{kind: kindDist, method: http.MethodGet}
		qu.from, qu.to = q.window(r % 3)
		qu.target = fmt.Sprintf("/v1/query/distribution?from=%d&to=%d", TickUnix(qu.from), TickUnix(qu.to))
		return qu
	case r < 95:
		f := mlearn.Features{User: q.users[q.rand(len(q.users))], Nodes: 1 + q.rand(64), WallHours: float64(1 + q.rand(24))}
		body, _ := json.Marshal(serve.PredictRequest{User: f.User, Nodes: f.Nodes, WallHours: f.WallHours}) // plain struct: cannot fail
		return query{kind: kindPredict, method: http.MethodPost, target: "/v1/predict", body: body, feat: f}
	default:
		// A job that ended before the preload did: its statistics no
		// longer move, whatever the writer appends.
		for {
			si := q.rand(len(q.fleet.slots))
			s := q.fleet.slots[si]
			gens := (q.preload + s.offset) / s.period // generations that have ended
			if gens == 0 {
				continue
			}
			gen := q.rand(gens)
			first := max(gen*s.period-s.offset, 0)
			end := (gen+1)*s.period - s.offset
			job := uint64(1 + si + len(q.fleet.slots)*gen)
			return query{kind: kindJobPower, method: http.MethodGet, target: fmt.Sprintf("/v1/jobs/%d/power", job),
				job: job, node: s.n, jobSamples: int64(s.n * (end - first))}
		}
	}
}

func (q *queryInst) do(qu query) (time.Duration, []byte, error) {
	req, err := http.NewRequest(qu.method, q.node.url+qu.target, bytes.NewReader(qu.body))
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	resp, err := q.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, nil, statusErr(qu.target, resp.StatusCode, body)
	}
	return d, body, nil
}

// check recomputes the answer to qu from the generated samples alone
// and compares it with what the server said.
func (q *queryInst) check(qu query, body []byte) error {
	var want any
	switch qu.kind {
	case kindRange:
		pts := make([]tsdb.Point, 0, qu.to-qu.from+1)
		for t := qu.from; t <= qu.to; t++ {
			pts = append(pts, tsdb.Point{Unix: TickUnix(t), PowerW: q.fleet.PowerAt(qu.node, t)})
		}
		want = map[string]any{"node": qu.node, "frontier": TickUnix(q.front), "points": pts, "degraded": false}
	case kindAgg:
		var aggs []block.AggPoint
		for t := qu.from; t <= qu.to; t++ {
			u, w := TickUnix(t), q.fleet.PowerAt(qu.node, t)
			if b := u - u%300; len(aggs) == 0 || aggs[len(aggs)-1].T != b {
				aggs = append(aggs, block.AggPoint{T: b, Count: 1, Sum: w, Min: w, Max: w})
			} else {
				a := &aggs[len(aggs)-1]
				a.Count, a.Sum, a.Min, a.Max = a.Count+1, a.Sum+w, math.Min(a.Min, w), math.Max(a.Max, w)
			}
		}
		want = map[string]any{"node": qu.node, "step": 300, "frontier": TickUnix(q.front), "points": aggs, "degraded": false}
	case kindDist:
		values := make([]float64, 0, fleetNodes*(qu.to-qu.from+1))
		for node := 0; node < fleetNodes; node++ {
			for t := qu.from; t <= qu.to; t++ {
				values = append(values, q.fleet.PowerAt(node, t))
			}
		}
		want = map[string]any{"distribution": core.DistFromValues(values), "frontier": TickUnix(q.front), "degraded": false}
	case kindPredict:
		pred, std, n := q.model.PredictWithStd(qu.feat)
		want = serve.PredictResponse{PredictedW: pred, LeafStdW: std, LeafN: n}
	case kindJobPower:
		var got tsdb.JobStats
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.JobID != qu.job || got.Samples != qu.jobSamples || got.Nodes != qu.node {
			return fmt.Errorf("job %d: %d samples on %d nodes, want %d on %d", got.JobID, got.Samples, got.Nodes, qu.jobSamples, qu.node)
		}
		return nil
	}
	return jsonClose(body, want)
}

// jsonClose compares a JSON document with the encoding of want; numbers
// may differ by 1e-9 relative (sums taken in another order).
func jsonClose(got []byte, want any) error {
	wb, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		return err
	}
	if err := json.Unmarshal(wb, &w); err != nil {
		return err
	}
	return closeValue("$", g, w)
}

func closeValue(path string, g, w any) error {
	switch wv := w.(type) {
	case map[string]any:
		gv, ok := g.(map[string]any)
		if !ok || len(gv) != len(wv) {
			return fmt.Errorf("%s: got %v, want an object with %d keys", path, g, len(wv))
		}
		for k := range wv {
			if err := closeValue(path+"."+k, gv[k], wv[k]); err != nil {
				return err
			}
		}
	case []any:
		gv, ok := g.([]any)
		if !ok || len(gv) != len(wv) {
			return fmt.Errorf("%s: got %d elements, want %d", path, len(gv), len(wv))
		}
		for i := range wv {
			if err := closeValue(fmt.Sprintf("%s[%d]", path, i), gv[i], wv[i]); err != nil {
				return err
			}
		}
	case float64:
		gv, ok := g.(float64)
		if !ok || math.Abs(gv-wv) > 1e-9*math.Max(math.Abs(gv), math.Abs(wv)) {
			return fmt.Errorf("%s: got %v, want %v", path, g, wv)
		}
	default:
		if g != w {
			return fmt.Errorf("%s: got %v, want %v", path, g, w)
		}
	}
	return nil
}

// runWriter posts the fleet's ticks on a fixed schedule, one batch every
// 1/writerRate s, alternating agents. It is one goroutine: when the
// server stalls it falls behind, sends the overdue batches back to back
// and times every one from when it was due, so a stall costs every batch
// it delayed, not just the one that hit it.
func (q *queryInst) runWriter() {
	defer close(q.writerDone)
	interval := time.Second / time.Duration(q.e.count(writerRate, 2))
	start := time.Now()
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-q.stopWriter:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-q.stopWriter:
				return
			default:
			}
		}
		a := q.writers[n%len(q.writers)]
		if a.tick-q.preload >= writerBudget {
			q.wmu.Lock()
			q.werr = fmt.Errorf("the writer used up the head rings' spare half day after %d ticks; measure for fewer seconds", writerBudget)
			q.wmu.Unlock()
			return
		}
		body := a.next()
		late := time.Since(due)
		_, err := a.post(body, "")
		q.wmu.Lock()
		if err != nil {
			q.wfailed++
			if q.werr == nil {
				q.werr = err
			}
		} else {
			q.wacked += agentNodes
			q.wlat = append(q.wlat, ms(time.Since(due)))
			q.wlate = append(q.wlate, ms(late))
		}
		q.wmu.Unlock()
	}
}

func (q *queryInst) startWriter() {
	if q.stopWriter == nil {
		q.stopWriter, q.writerDone = make(chan struct{}), make(chan struct{})
		go q.runWriter()
	}
}

func (q *queryInst) haltWriter() {
	if q.stopWriter != nil {
		close(q.stopWriter)
		<-q.writerDone
		q.stopWriter = nil
	}
}

// drainWriter returns and forgets what the writer measured so far.
func (q *queryInst) drainWriter() (lat, late []float64) {
	q.wmu.Lock()
	defer q.wmu.Unlock()
	lat, late = q.wlat, q.wlate
	q.wlat, q.wlate = nil, nil
	return lat, late
}

func (q *queryInst) Round() (roundStats, error) {
	q.startWriter()
	q.drainWriter()
	n := q.e.count(roundQueries, deckSize) / deckSize * deckSize
	r := roundStats{ops: int64(n), extra: map[string][]float64{}}
	byKind := [numKinds][]float64{}
	var firstErr error
	r.busy, r.cpu, r.alloc, _ = measure(func() error {
		for i := 0; i < n; i++ {
			qu := q.nextQuery()
			d, body, err := q.do(qu)
			q.issued++
			if err == nil && q.issued%oracleEvery == 0 {
				q.checked++
				if cerr := q.check(qu, body); cerr != nil {
					err = fmt.Errorf("%s %s: %w", kindName[qu.kind], qu.target, cerr)
				}
			}
			if err != nil {
				r.failed++
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			byKind[qu.kind] = append(byKind[qu.kind], ms(d))
		}
		return nil
	})
	if firstErr != nil {
		return r, firstErr
	}
	wlat, wlate := q.drainWriter()
	r.lat = byKind[kindRange]
	r.work = float64(n)
	for k := kindAgg; k < numKinds; k++ {
		r.extra[kindName[k]+"_ms"] = byKind[k]
	}
	r.extra["writer_ack_ms"], r.extra["writer_late_ms"] = wlat, wlate
	r.ops += int64(len(wlat))
	return r, nil
}

func (q *queryInst) Verify() error {
	q.haltWriter()
	q.wmu.Lock()
	werr, wfailed, wacked := q.werr, q.wfailed, q.wacked
	q.wmu.Unlock()
	if werr != nil || wfailed != 0 {
		return fmt.Errorf("writer: %d batches failed: %v", wfailed, werr)
	}
	if q.issued >= oracleEvery && q.checked == 0 {
		return fmt.Errorf("no response was checked")
	}
	want := int64(q.preload)*fleetNodes + wacked
	if got := q.node.store.Ingested(); got != want {
		return fmt.Errorf("store ingested %d samples, want %d", got, want)
	}
	m := scrape(q.node.srv.Registry())
	for _, k := range []string{"powserved_admit_gate_query_shed_total", "powserved_batches_rejected_total", "powserved_batches_duplicate_total"} {
		if m[k] != 0 {
			return fmt.Errorf("%s = %v on a workload that must not be refused", k, m[k])
		}
	}
	return nil
}

func (q *queryInst) Close() error {
	q.haltWriter()
	q.hc.CloseIdleConnections()
	for _, a := range q.writers {
		a.close()
	}
	return q.node.Close()
}
