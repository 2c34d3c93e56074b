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

	"hpcpower/internal/mlearn"
	"hpcpower/internal/obs"
	"hpcpower/internal/serve"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/wal"
)

// modelScale sizes the Emmy dataset the served BDT is trained on at
// set-up (about 640 jobs), as `powserved -train` does at boot.
const modelScale = 0.02

// agent is one closed-loop shipper: it owns a keep-alive connection,
// sends the next tick of its 512 nodes only after the previous batch
// was acknowledged, and reuses one sample and one body buffer.
type agent struct {
	id      int
	name    string
	fleet   *Fleet
	url     string
	hc      *http.Client
	seq     uint64
	tick    int
	samples []trace.PowerSample
	body    []byte
	encode  time.Duration // total time spent generating and encoding
	ackBuf  [128]byte
}

func newAgent(f *Fleet, id int, baseURL string) *agent {
	return &agent{
		id: id, name: AgentName(id), fleet: f, url: baseURL + "/v1/samples",
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
}

// next generates and encodes the agent's next batch into its buffer.
func (a *agent) next() []byte {
	t0 := time.Now()
	a.samples = a.fleet.Batch(a.samples, a.id, a.tick)
	a.seq++
	a.tick++
	a.body = AppendBatch(a.body[:0], a.name, a.seq, a.samples)
	a.encode += time.Since(t0)
	return a.body
}

var ackFull = []byte(fmt.Sprintf(`{"accepted":%d}`, agentNodes))

// post sends one body and returns the send → ack time. Anything but a
// 202 that accepted every sample is an error: a refused batch failed.
func (a *agent) post(body []byte, traceID string) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, a.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.HeaderTraceID, traceID)
	}
	t0 := time.Now()
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, err
	}
	n, _ := io.ReadFull(resp.Body, a.ackBuf[:])
	resp.Body.Close()
	d := time.Since(t0)
	if got := bytes.TrimSpace(a.ackBuf[:n]); resp.StatusCode != http.StatusAccepted || !bytes.Equal(got, ackFull) {
		return d, statusErr("ingest", resp.StatusCode, got)
	}
	return d, nil
}

func (a *agent) close() { a.hc.CloseIdleConnections() }

// ingestCfg is what differs between the three ingest workloads.
type ingestCfg struct {
	durable bool
	// policy is `powserved -fsync`. ingest-wal runs with interval: the WAL
	// is fsynced every 100 ms in the background and a 202 does not wait
	// for it. The production default, batch, puts the fsync on the ack
	// path and was measured first: on this sandbox's disk fsync flips
	// between a fast and a slow mode for seconds at a time (ack p50 1.35
	// or 1.8 ms), which alone spread the ack-path metrics by 20–26 %
	// between runs. What a fsync costs stays visible as
	// wal.wait_durable_us. ingest-repl-sync has to run with batch: the
	// replication stream only carries fsynced records, so with interval
	// every semi-sync ack would wait for the 100 ms timer.
	policy   wal.SyncPolicy
	anomaly  bool
	follower bool // in-process follower, primary acks semi-synchronously
	round    int  // batches per round, both agents together
}

type ingestInst struct {
	e      *env
	cfg    ingestCfg
	fleet  *Fleet
	model  *mlearn.BDT
	node   *node
	fol    *node
	agents []*agent
	acked  int64 // samples acknowledged
	failed int64
	lagMax float64
}

func setupIngest(cfg ingestCfg) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		in := &ingestInst{e: e, cfg: cfg, fleet: NewFleet(e.seed)}
		var err error
		if in.model, _, err = trainModel(e.seed, modelScale); err != nil {
			return nil, err
		}
		if in.node, in.fol, err = in.boot(cfg.follower); err != nil {
			return nil, err
		}
		for id := 0; id < fleetAgents; id++ {
			in.agents = append(in.agents, newAgent(in.fleet, id, in.node.url))
		}
		return in, nil
	}
}

// boot starts one node as the workload configures it, with or without
// a semi-sync follower. The traced run boots several.
func (in *ingestInst) boot(withFollower bool) (primary, follower *node, err error) {
	c := nodeCfg{model: in.model, durable: in.cfg.durable, policy: in.cfg.policy, anomaly: in.cfg.anomaly}
	if withFollower {
		c.repl = &serve.ReplicationConfig{SyncAck: true}
	}
	dir := ""
	if c.durable {
		if dir, err = in.e.scratch("primary"); err != nil {
			return nil, nil, err
		}
	}
	if primary, err = bootNode(dir, c); err != nil {
		return nil, nil, err
	}
	if !withFollower {
		return primary, nil, nil
	}
	fdir, err := in.e.scratch("follower")
	if err != nil {
		primary.Close()
		return nil, nil, err
	}
	fc := c
	fc.repl = &serve.ReplicationConfig{Role: serve.RoleFollower, PrimaryURL: primary.url, FollowerID: "f1"}
	if follower, err = bootNode(fdir, fc); err != nil {
		primary.Close()
		return nil, nil, err
	}
	// A semi-sync primary only waits for registered followers: without
	// this the first acks would skip the replication hop.
	err = waitFor(10*time.Second, "the follower to register", func() bool {
		return scrape(primary.srv.Registry())["powserved_repl_followers"] >= 1
	})
	if err != nil {
		follower.Close()
		primary.Close()
		return nil, nil, err
	}
	return primary, follower, nil
}

func (in *ingestInst) Round() (roundStats, error) {
	per := in.e.count(in.cfg.round, 8*len(in.agents)) / len(in.agents)
	lats := make([][]float64, len(in.agents))
	fails := make([]int64, len(in.agents))
	var firstErr error
	var mu sync.Mutex
	busy, cpu, alloc, _ := measure(func() error {
		var wg sync.WaitGroup
		for i, a := range in.agents {
			wg.Add(1)
			go func(i int, a *agent) {
				defer wg.Done()
				lat := make([]float64, 0, per)
				for n := 0; n < per; n++ {
					d, err := a.post(a.next(), "")
					if err != nil {
						fails[i]++
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						continue
					}
					lat = append(lat, ms(d))
				}
				lats[i] = lat
			}(i, a)
		}
		wg.Wait()
		return nil
	})
	r := roundStats{busy: busy, cpu: cpu, alloc: alloc, ops: int64(per * len(in.agents))}
	for i := range lats {
		r.lat = append(r.lat, lats[i]...)
		r.failed += fails[i]
	}
	r.work = float64(len(r.lat) * agentNodes)
	in.acked += int64(len(r.lat) * agentNodes)
	in.failed += r.failed
	if len(r.lat) == 0 {
		return r, fmt.Errorf("every batch of the round failed, first: %w", firstErr)
	}
	if p99, p := tail(r.lat); p == 99 {
		r.extra = map[string][]float64{"ack_p99_ms": {p99}}
	}
	if in.fol != nil {
		in.lagMax = math.Max(in.lagMax, scrape(in.node.srv.Registry())["powserved_repl_lag_records"])
	}
	return r, nil
}

// controlStore feeds a fresh store the same samples directly, agent by
// agent in tick order — the order each agent's batches were applied in.
func controlStore(f *Fleet, ticks []int) (*tsdb.Store, error) {
	ctl := tsdb.New(tsdb.DefaultConfig())
	errs := make([]error, len(ticks))
	var wg sync.WaitGroup
	for ag := range ticks {
		wg.Add(1)
		go func(ag int) {
			defer wg.Done()
			var buf []trace.PowerSample
			for t := 0; t < ticks[ag] && errs[ag] == nil; t++ {
				buf = f.Batch(buf, ag, t)
				errs[ag] = ctl.Append(buf)
			}
		}(ag)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ctl, nil
}

// sameSummary compares two store summaries. Counts and extremes must be
// equal; mean and std may differ in the last bits because agents hash
// into shared shards and their batches interleave differently each run.
func sameSummary(got, want tsdb.Summary) error {
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	if got.Samples != want.Samples || got.Nodes != want.Nodes || got.Jobs != want.Jobs ||
		got.MinW != want.MinW || got.MaxW != want.MaxW || !close(got.MeanW, want.MeanW) || !close(got.StdW, want.StdW) {
		return fmt.Errorf("summary %+v, want %+v", got, want)
	}
	return nil
}

// sameJobs checks that both stores know the same jobs and characterize
// every one of them bit for bit.
func sameJobs(got, want *tsdb.Store) error {
	ids := want.Jobs()
	if g := got.Jobs(); len(g) != len(ids) {
		return fmt.Errorf("%d jobs, want %d", len(g), len(ids))
	}
	for _, id := range ids {
		a, okA := got.JobPower(id)
		b, okB := want.JobPower(id)
		ja, errA := json.Marshal(a)
		jb, errB := json.Marshal(b)
		if errA != nil || errB != nil {
			return fmt.Errorf("job %d: encoding its power: %v %v", id, errA, errB)
		}
		if okA != okB || !bytes.Equal(ja, jb) {
			return fmt.Errorf("job %d power %s, want %s", id, ja, jb)
		}
	}
	return nil
}

// summaryOver asks GET /v1/summary through the handler chain.
func summaryOver(n *node) (tsdb.Summary, []byte, error) {
	rec, _ := n.serveInProcess(http.MethodGet, "/v1/summary", nil, "")
	var s tsdb.Summary
	if rec.Code != http.StatusOK {
		return s, nil, statusErr("summary", rec.Code, rec.Body.Bytes())
	}
	body := append([]byte(nil), rec.Body.Bytes()...)
	return s, body, json.Unmarshal(body, &s)
}

// verifyNode checks one ingest node against the control store, and that
// it refused, shed and deduplicated nothing and raised no alert.
func verifyNode(n *node, ctl *tsdb.Store, acked int64) error {
	if got := n.store.Ingested(); got != acked {
		return fmt.Errorf("store ingested %d samples, %d were acknowledged", got, acked)
	}
	sum, _, err := summaryOver(n)
	if err != nil {
		return err
	}
	if err := sameSummary(sum, ctl.Summarize()); err != nil {
		return err
	}
	if err := sameJobs(n.store, ctl); err != nil {
		return err
	}
	m := scrape(n.srv.Registry())
	for _, k := range []string{"powserved_batches_rejected_total", "powserved_batches_duplicate_total", "powserved_batches_invalid_total", "powserved_admit_queue_shed_total", "powserved_admit_refused_total"} {
		if m[k] != 0 {
			return fmt.Errorf("%s = %v on a workload that must not be refused", k, m[k])
		}
	}
	if n.anom != nil {
		if st := n.anom.Snapshot(); st.Fired != 0 {
			return fmt.Errorf("%d alerts fired on the clean fleet", st.Fired)
		}
	}
	return nil
}

func (in *ingestInst) Verify() error {
	if in.failed != 0 {
		return fmt.Errorf("%d batches were not acknowledged", in.failed)
	}
	ticks := make([]int, len(in.agents))
	for i, a := range in.agents {
		ticks[i] = a.tick
	}
	ctl, err := controlStore(in.fleet, ticks)
	if err != nil {
		return err
	}
	if err := verifyNode(in.node, ctl, in.acked); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	if in.fol == nil {
		return nil
	}
	// Semi-sync acks mean the follower already holds every record; its
	// apply counter may trail the ack by the worker hand-off only.
	err = waitFor(10*time.Second, "the follower to apply every record", func() bool {
		return in.fol.store.Ingested() == in.acked
	})
	if err != nil {
		return err
	}
	if err := verifyNode(in.fol, ctl, in.acked); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	if err := sameJobs(in.fol.store, in.node.store); err != nil {
		return fmt.Errorf("follower differs from primary: %w", err)
	}
	return nil
}

func (in *ingestInst) Close() error {
	for _, a := range in.agents {
		a.close()
	}
	var err error
	if in.fol != nil {
		err = in.fol.Close()
	}
	if cerr := in.node.Close(); err == nil {
		err = cerr
	}
	return err
}
