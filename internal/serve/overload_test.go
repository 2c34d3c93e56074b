package serve

// The overload rounds: admission control under more load than it admits.
// A durable primary with a per-agent rate ceiling and a memory watermark,
// its in-process follower, and sixteen shippers delivering over a network
// that answers 502, or resets or truncates the answer; then a memory-only node whose
// queue of fat batches trips a small watermark and must clear it. Every
// check counts: acked samples, 429s, admitted batches, accounted bytes.
// One subtest per seed:
//
//	go test -run 'TestOverloadRounds/seed=2' ./internal/serve/

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcpower/internal/admit"
	"hpcpower/internal/rng"
	"hpcpower/internal/ship"
	"hpcpower/internal/trace"
)

var overloadSeeds = []uint64{1, 2}

const (
	ovAgents    = 16
	ovBatches   = 24   // per agent
	ovNodes     = 4    // per agent, each its own
	ovMinutes   = 8    // per batch, on every node of the agent
	ovRate      = 20.0 // batches/s an agent is admitted
	ovBurst     = 2
	ovWatermark = 64 << 20

	fatAgents  = 32
	fatBatches = 3
	fatSamples = 2048 // 64 nodes × 32 minutes: ≈ 96 KiB queued
	fatMark    = 2 << 20
)

// agentBatches is the load of agent "<prefix>-<i>": n batches of a job of
// its own on nodes first.. first+nodes-1, stamped as its shipper stamps
// them (seq from 1), so a control can take them in order.
func agentBatches(src *rng.Source, prefix string, i, n, first, nodes, minutes int) []trace.SampleBatch {
	out := make([]trace.SampleBatch, n)
	for b := range out {
		out[b] = trace.SampleBatch{AgentID: fmt.Sprintf("%s-%d", prefix, i), Seq: uint64(b + 1)}
		for m := 0; m < minutes; m++ {
			for k := 0; k < nodes; k++ {
				out[b].Samples = append(out[b].Samples, trace.PowerSample{
					Node: first + k, JobID: uint64(100 + i),
					Unix:   1_700_000_000 + int64(60*(b*minutes+m)),
					PowerW: math.Round(1000+3000*src.Float64()) / 10,
				})
			}
		}
	}
	return out
}

// overloadShipper delivers one agent's batches to url over client,
// counting the 429s it is answered.
type overloadShipper struct {
	sh      *ship.Shipper
	batches []trace.SampleBatch
	got429  atomic.Int64
	elapsed time.Duration
	err     error
}

func newOverloadShipper(client *http.Client, url string, batches []trace.SampleBatch, seed int64) *overloadShipper {
	o := &overloadShipper{batches: batches}
	o.sh = ship.New(ship.Config{URL: url, AgentID: batches[0].AgentID, Client: client,
		BaseBackoff: time.Millisecond, MaxBackoff: 200 * time.Millisecond,
		BreakerThreshold: -1, Seed: seed,
		Observe: func(_ time.Duration, status int, _ error) {
			if status == http.StatusTooManyRequests {
				o.got429.Add(1)
			}
		}})
	return o
}

func (o *overloadShipper) run(ctx context.Context) {
	start := time.Now()
	for _, b := range o.batches {
		o.sh.Enqueue(b.Samples)
	}
	o.err = o.sh.Flush(ctx)
	o.elapsed = time.Since(start)
}

// shipAll runs the shippers concurrently until every batch is acked.
func shipAll(t *testing.T, shippers []*overloadShipper) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for _, o := range shippers {
		wg.Add(1)
		go func() { defer wg.Done(); o.run(ctx) }()
	}
	wg.Wait()
}

// checkShippers: every shipper flushed and gave up on nothing, and each
// 429 it was answered is one it waited out in place.
func checkShippers(t *testing.T, shippers []*overloadShipper) {
	t.Helper()
	for _, o := range shippers {
		checkShipped(t, o.batches[0].AgentID, o.sh.Stats(), len(o.batches))
		if o.err != nil {
			t.Errorf("%s: %v", o.batches[0].AgentID, o.err)
		}
		if st, got := o.sh.Stats(), o.got429.Load(); st.ShedWaits != got {
			t.Errorf("%s: %d shed waits for %d 429s", o.batches[0].AgentID, st.ShedWaits, got)
		}
	}
}

func shedTotal(s *Server) int64 {
	var n int64
	for _, r := range shedReasons {
		n += s.metrics.admitShed.With(r).Value()
	}
	return n
}

// TestOverloadRounds runs, per seed, the admission round and the
// watermark round.
func TestOverloadRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("overload rounds take seconds")
	}
	for _, seed := range overloadSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Run("admission", func(t *testing.T) { admissionRound(t, seed) })
			t.Run("watermark", func(t *testing.T) { watermarkRound(t, seed) })
		})
	}
}

// admissionRound offers each agent more than its ceiling through a
// faulty path (502s, truncated answers, and resets after the primary
// answered, whose re-sends arrive as duplicates): the primary sheds the
// overage with 429s the shippers wait out, admits no agent past its
// bucket, keeps its accounted memory under the watermark, and ends, like
// its follower, with exactly the control's samples and analytics.
func admissionRound(t *testing.T, seed uint64) {
	primary, tsP := testNode{dir: t.TempDir(),
		cfg: Config{Admit: admit.Config{AgentRate: ovRate, AgentBurst: ovBurst, MemWatermark: ovWatermark}}}.start(t)
	follower, _ := testNode{dir: t.TempDir(), follow: tsP.URL}.start(t)
	var net faultNet
	url := net.ingest(tsP.URL, faults{err5xx: 0.03, reset: 0.02, truncate: 0.02, seed: int64(seed)})

	src := rng.New(seed)
	var batches []trace.SampleBatch
	shippers := make([]*overloadShipper, ovAgents)
	for i := range shippers {
		b := agentBatches(src, "ov", i, ovBatches, i*ovNodes, ovNodes, ovMinutes)
		batches = append(batches, b...)
		shippers[i] = newOverloadShipper(net.client(), url, b, int64(seed)*100+int64(i))
	}

	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if m := primary.memBytes(); m > peak.Load() {
				peak.Store(m)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	shipAll(t, shippers)
	close(stop)
	<-sampled

	checkShippers(t, shippers)
	var retries, dups int64
	for _, o := range shippers {
		st := o.sh.Stats()
		retries, dups = retries+st.Retries, dups+st.Duplicates
		// The bucket starts full and refills at the rate: no agent gets
		// more fresh batches in than that, whatever it offers.
		admitted := st.ShippedBatches - st.Duplicates
		if bound := ovBurst + ovRate*o.elapsed.Seconds(); float64(admitted) > bound {
			t.Errorf("%s: %d batches admitted in %v, the bucket allows %.1f", o.batches[0].AgentID, admitted, o.elapsed, bound)
		}
	}
	if retries == 0 || dups == 0 {
		t.Errorf("the faults did not bite: %d retries, %d duplicates", retries, dups)
	}
	net.checkFired(t)
	if n := primary.metrics.admitShed.With("agent_rate").Value(); n < 1 {
		t.Errorf("admit_shed_total{reason=agent_rate} %d: nothing was shed", n)
	}
	if p := peak.Load(); p >= ovWatermark || primary.adm.memTransitions.Load() != 0 {
		t.Errorf("accounted memory peaked at %d bytes (%d watermark transitions) under a %d-byte watermark",
			p, primary.adm.memTransitions.Load(), ovWatermark)
	}

	waitFor(t, "the follower to catch up", func() bool {
		rs := follower.dur.repl
		return follower.store.Ingested() == primary.store.Ingested() && rs.lagRecords() == 0 &&
			rs.replApplied.Load() == primary.dur.repl.source.Watermark()
	})
	shed := shedTotal(primary)
	time.Sleep(100 * time.Millisecond)
	if after := shedTotal(primary); after != shed {
		t.Errorf("still shedding after the load stopped: %d → %d", shed, after)
	}
	checkAckedOnce(t, primary, batches, len(batches))
	checkFollowerMatches(t, primary, follower)
	checkSameAsControl(t, "the primary", analyticsOf(t, primary, tsP.URL),
		controlAnalytics(t, testNode{dir: t.TempDir()}, batches))
}

// watermarkRound parks the one ingest worker of a memory-only node while
// fat batches queue past a 2 MiB watermark, sends one more agent into the
// degraded node, then lets the worker go: ingest is shed while degraded,
// the flag clears on its own once the queue drains (the agents share 64
// nodes, so what the store keeps stays under the resume level), and every
// sample lands exactly once.
func watermarkRound(t *testing.T, seed uint64) {
	// The limiter's floor sits above the shipper count, so the limiter
	// cannot hold the queue just under the watermark.
	s, ts := testNode{ringLen: 64,
		cfg: Config{IngestWorkers: 1, Admit: admit.Config{Step: 5 * time.Millisecond, MinInflight: 48, MemWatermark: fatMark}}}.start(t)

	src := rng.New(seed)
	shippers := make([]*overloadShipper, fatAgents+1)
	var batches []trace.SampleBatch
	for i := range shippers {
		b := agentBatches(src, "fat", i, fatBatches, 0, 64, fatSamples/64)
		batches = append(batches, b...)
		shippers[i] = newOverloadShipper(&http.Client{Timeout: 5 * time.Second}, ts.URL+"/v1/samples", b, int64(seed)*100+int64(i))
	}
	late := shippers[fatAgents]

	var released sync.Once
	release := func(park func()) func() { return func() { released.Do(park) } }(parkWorker(t, s))
	defer release()
	done := make(chan struct{})
	go func() { defer close(done); shipAll(t, shippers[:fatAgents]) }()
	waitFor(t, "the queue to cross the watermark", s.adm.memDegraded.Load)
	lateDone := make(chan struct{})
	go func() { defer close(lateDone); shipAll(t, []*overloadShipper{late}) }()
	waitFor(t, "the late agent to be shed", func() bool { return late.got429.Load() > 0 })
	release()
	<-done
	<-lateDone

	checkShippers(t, shippers)
	waitIngested(t, s, int64(len(batches)*fatSamples))
	waitFor(t, "degraded mode to clear", func() bool { return !s.adm.memDegraded.Load() })
	checkAckedOnce(t, s, batches, len(batches))
	if n := s.metrics.admitShed.With("memory").Value(); n < 1 {
		t.Errorf("admit_shed_total{reason=memory} %d: nothing was shed while degraded", n)
	}
	if n := s.adm.memTransitions.Load(); n < 2 || n%2 != 0 {
		t.Errorf("%d watermark transitions, want it crossed and cleared", n)
	}
}
