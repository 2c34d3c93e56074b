package ship

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcpower/internal/trace"
)

func samplesFor(n, base int) []trace.PowerSample {
	out := make([]trace.PowerSample, n)
	for i := range out {
		out[i] = trace.PowerSample{Node: base + i, JobID: 1, Unix: 60, PowerW: 100}
	}
	return out
}

// ackServer accepts every batch and records what it saw.
type ackServer struct {
	mu      sync.Mutex
	batches []trace.SampleBatch
}

func (a *ackServer) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var b trace.SampleBatch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a.mu.Lock()
		a.batches = append(a.batches, b)
		a.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]int{"accepted": len(b.Samples)})
	}
}

func TestShipperDeliversInOrder(t *testing.T) {
	var srv ackServer
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	s := New(Config{URL: ts.URL, AgentID: "agent-a"})
	for i := 0; i < 10; i++ {
		s.Enqueue(samplesFor(3, i*10))
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.batches) != 10 {
		t.Fatalf("server saw %d batches, want 10", len(srv.batches))
	}
	for i, b := range srv.batches {
		if b.AgentID != "agent-a" || b.Seq != uint64(i+1) {
			t.Errorf("batch %d: agent %q seq %d, want agent-a seq %d", i, b.AgentID, b.Seq, i+1)
		}
		if b.Redelivery {
			t.Errorf("batch %d flagged redelivery on a clean path", i)
		}
	}
	st := s.Stats()
	if st.ShippedBatches != 10 || st.ShippedSamples != 30 || st.Retries != 0 ||
		st.DroppedSamples != 0 || st.Pending != 0 || st.Breaker != "closed" {
		t.Errorf("stats = %+v", st)
	}
}

func TestShipperRetriesWithRedeliveryFlag(t *testing.T) {
	var calls atomic.Int64
	var srv ackServer
	inner := srv.handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		inner(w, r)
	}))
	defer ts.Close()

	s := New(Config{URL: ts.URL, AgentID: "a", BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	s.Enqueue(samplesFor(2, 0))
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	got := srv.batches
	srv.mu.Unlock()
	if len(got) != 1 || !got[0].Redelivery {
		t.Fatalf("server saw %+v, want one redelivery-flagged batch", got)
	}
	st := s.Stats()
	if st.Retries != 2 || st.Redeliveries != 1 || st.ShippedBatches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestShipperHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var srv ackServer
	inner := srv.handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "full", http.StatusServiceUnavailable)
			return
		}
		inner(w, r)
	}))
	defer ts.Close()

	// BaseBackoff is tiny: any wait in the jittered [0.5s, 1s] hint
	// window proves the server hint won over the exponential schedule.
	s := New(Config{URL: ts.URL, AgentID: "a", BaseBackoff: time.Microsecond, MaxBackoff: 2 * time.Second})
	s.Enqueue(samplesFor(1, 0))
	start := time.Now()
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 450*time.Millisecond {
		t.Errorf("flush took %v, want ≥ ~0.5s (jittered Retry-After honored)", elapsed)
	}
	if st := s.Stats(); st.ShippedBatches != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestShipperSpillEviction(t *testing.T) {
	// No delivery loop running: everything accumulates in the buffer.
	s := New(Config{URL: "http://127.0.0.1:0/unused", MaxPending: 4})
	for i := 0; i < 10; i++ {
		s.Enqueue(samplesFor(5, i*10))
	}
	st := s.Stats()
	if st.Pending != 4 {
		t.Errorf("pending = %d, want 4 (bounded)", st.Pending)
	}
	if st.EvictedBatches != 6 || st.DroppedSamples != 30 {
		t.Errorf("evicted %d batches / %d samples, want 6 / 30", st.EvictedBatches, st.DroppedSamples)
	}
}

func TestShipperBreakerOpensAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var attempts atomic.Int64
	var srv ackServer
	inner := srv.handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		if failing.Load() {
			http.Error(w, "down", http.StatusBadGateway)
			return
		}
		inner(w, r)
	}))
	defer ts.Close()

	s := New(Config{
		URL: ts.URL, AgentID: "a",
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 30 * time.Millisecond,
	})
	s.Enqueue(samplesFor(1, 0))

	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { done <- s.Flush(ctx) }()

	// Let it bang against the dead server long enough to trip the breaker,
	// then heal the server and wait for delivery.
	deadline := time.Now().Add(5 * time.Second)
	for s.targets[0].breaker.opens.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.targets[0].breaker.opens.Load() == 0 {
		t.Fatal("breaker never opened against a dead server")
	}
	// While open, attempts must stall (fail-fast, no hammering).
	before := attempts.Load()
	time.Sleep(10 * time.Millisecond)
	if after := attempts.Load(); after-before > 2 {
		t.Errorf("open breaker let %d attempts through in 10ms", after-before)
	}
	failing.Store(false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ShippedBatches != 1 || st.BreakerOpens == 0 || st.Breaker != "closed" {
		t.Errorf("stats after recovery = %+v", st)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.batches) != 1 {
		t.Errorf("server saw %d batches, want 1", len(srv.batches))
	}
}

func TestShipperPoisonBatchesNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad batch", http.StatusBadRequest)
	}))
	defer ts.Close()

	s := New(Config{URL: ts.URL, AgentID: "a", BaseBackoff: time.Millisecond})
	s.Enqueue(samplesFor(4, 0))
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("poison batch attempted %d times, want 1", calls.Load())
	}
	st := s.Stats()
	if st.PoisonedBatches != 1 || st.DroppedSamples != 4 || st.Pending != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestShipperMaxAttemptsExhaustion(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	s := New(Config{
		URL: ts.URL, AgentID: "a", MaxAttempts: 3,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		BreakerThreshold: -1,
	})
	s.Enqueue(samplesFor(2, 0))
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("batch attempted %d times, want 3 (MaxAttempts)", calls.Load())
	}
	st := s.Stats()
	if st.ExhaustedBatch != 1 || st.DroppedSamples != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestShipperConcurrentEnqueue races Enqueue against a delivery loop —
// the -race CI job is the real assertion here; delivery completeness is
// checked too.
func TestShipperConcurrentEnqueue(t *testing.T) {
	var srv ackServer
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	s := New(Config{URL: ts.URL, AgentID: "a", MaxPending: 1024})
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		for ctx.Err() == nil {
			s.Flush(ctx)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	const producers, perProducer = 4, 50
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				s.Enqueue(samplesFor(1, p*1000+i))
			}
		}(p)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().ShippedBatches < producers*perProducer && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-runDone
	if got := s.Stats().ShippedBatches; got != producers*perProducer {
		t.Fatalf("shipped %d batches, want %d", got, producers*perProducer)
	}
	// Every sequence number 1..N delivered exactly once.
	srv.mu.Lock()
	defer srv.mu.Unlock()
	seen := map[uint64]int{}
	for _, b := range srv.batches {
		seen[b.Seq]++
	}
	for seq := uint64(1); seq <= producers*perProducer; seq++ {
		if seen[seq] != 1 {
			t.Fatalf("seq %d delivered %d times", seq, seen[seq])
		}
	}
}

// fencedServer answers like a deposed primary: 409 + X-Repl-Fenced.
func fencedHandler(epoch string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Repl-Epoch", epoch)
		w.Header().Set("X-Repl-Fenced", "1")
		http.Error(w, `{"error":"stale epoch","code":"stale_epoch"}`, http.StatusConflict)
	}
}

// followerHandler answers like a warm standby: 503 + X-Repl-Role.
func followerHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Repl-Role", "follower")
		http.Error(w, `{"error":"not primary","code":"not_primary"}`, http.StatusServiceUnavailable)
	}
}

func TestShipperFailsOverOnFencedPrimary(t *testing.T) {
	tsOld := httptest.NewServer(fencedHandler("7"))
	defer tsOld.Close()
	var srv ackServer
	tsNew := httptest.NewServer(srv.handler())
	defer tsNew.Close()

	s := New(Config{URLs: []string{tsOld.URL, tsNew.URL}, AgentID: "a",
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	s.Enqueue(samplesFor(3, 0))
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ShippedBatches != 1 || st.PoisonedBatches != 0 {
		t.Fatalf("stats = %+v, want 1 shipped, 0 poisoned (fenced 409 must not poison)", st)
	}
	if st.Failovers != 1 || st.Target != tsNew.URL {
		t.Errorf("failovers=%d target=%q, want 1 failover onto %q", st.Failovers, st.Target, tsNew.URL)
	}
	if st.Epoch != 7 {
		t.Errorf("observed epoch = %d, want 7 (from the fenced answer)", st.Epoch)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.batches) != 1 {
		t.Fatalf("new primary saw %d batches, want 1", len(srv.batches))
	}
}

func TestShipperFailsOverOnFollowerAnswer(t *testing.T) {
	tsF := httptest.NewServer(followerHandler())
	defer tsF.Close()
	var srv ackServer
	tsP := httptest.NewServer(srv.handler())
	defer tsP.Close()

	s := New(Config{URLs: []string{tsF.URL, tsP.URL}, AgentID: "a",
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	s.Enqueue(samplesFor(2, 0))
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ShippedBatches != 1 || st.Failovers != 1 || st.Target != tsP.URL {
		t.Fatalf("stats = %+v, want delivery via failover to %q", st, tsP.URL)
	}
	// The follower answer is a routing miss, not a server fault: the
	// first target's breaker must stay closed and nothing counts as a
	// retry-path drop.
	if st.DroppedSamples != 0 || st.BreakerOpens != 0 {
		t.Errorf("stats = %+v, want no drops and no breaker opens", st)
	}
}

func TestShipperBreakerOpenFailsOverImmediately(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer dead.Close()
	var srv ackServer
	alive := httptest.NewServer(srv.handler())
	defer alive.Close()

	s := New(Config{URLs: []string{dead.URL, alive.URL}, AgentID: "a",
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: time.Hour, // cooldown >> test: only failover can succeed
		FailbackEvery: time.Hour})
	s.Enqueue(samplesFor(1, 0))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ShippedBatches != 1 || st.BreakerOpens != 1 || st.Failovers != 1 {
		t.Fatalf("stats = %+v, want breaker-open → failover → delivery", st)
	}
}

func TestShipperFailbackToPreferred(t *testing.T) {
	var healed atomic.Bool
	var pref ackServer
	tsPref := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healed.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		pref.handler()(w, r)
	}))
	defer tsPref.Close()
	var alt ackServer
	tsAlt := httptest.NewServer(alt.handler())
	defer tsAlt.Close()

	s := New(Config{URLs: []string{tsPref.URL, tsAlt.URL}, AgentID: "a",
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
		FailbackEvery: 20 * time.Millisecond})

	// Drive the shipper away from the dead preferred target.
	s.Enqueue(samplesFor(1, 0))
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Target != tsAlt.URL {
		t.Fatalf("target = %q, want failover to %q first", st.Target, tsAlt.URL)
	}

	// Heal the preferred target; within a few FailbackEvery periods a
	// probe delivery must land there and make it current again.
	healed.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Target != tsPref.URL && time.Now().Before(deadline) {
		s.Enqueue(samplesFor(1, 0))
		if err := s.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Stats()
	if st.Target != tsPref.URL || st.Failbacks == 0 {
		t.Fatalf("stats = %+v, want failback onto %q", st, tsPref.URL)
	}
	pref.mu.Lock()
	defer pref.mu.Unlock()
	if len(pref.batches) == 0 {
		t.Fatal("preferred target never received a post-failback delivery")
	}
}

func TestShipperGossipsObservedEpoch(t *testing.T) {
	var sawEpoch atomic.Int64
	var srv ackServer
	inner := srv.handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get("X-Repl-Epoch"); v != "" {
			n, _ := strconv.ParseInt(v, 10, 64)
			sawEpoch.Store(n)
		}
		w.Header().Set("X-Repl-Epoch", "3")
		inner(w, r)
	}))
	defer ts.Close()

	s := New(Config{URL: ts.URL, AgentID: "a"})
	s.Enqueue(samplesFor(1, 0))
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sawEpoch.Load(); got != 0 {
		t.Fatalf("first delivery carried epoch %d, want none (nothing observed yet)", got)
	}
	s.Enqueue(samplesFor(1, 10))
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sawEpoch.Load(); got != 3 {
		t.Fatalf("second delivery carried epoch %d, want 3 (gossiped from first answer)", got)
	}
	if st := s.Stats(); st.Epoch != 3 {
		t.Errorf("Stats().Epoch = %d, want 3", st.Epoch)
	}
}

func TestShipperAllFollowersBacksOff(t *testing.T) {
	// Both targets answer "follower" (mid-promotion window): the
	// shipper must keep lapping with backoff, then deliver as soon as
	// one of them becomes primary.
	var promoted atomic.Bool
	var srv ackServer
	inner := srv.handler()
	mk := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if promoted.Load() {
				inner(w, r)
				return
			}
			followerHandler()(w, r)
		}))
	}
	ts1, ts2 := mk(), mk()
	defer ts1.Close()
	defer ts2.Close()

	s := New(Config{URLs: []string{ts1.URL, ts2.URL}, AgentID: "a",
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	s.Enqueue(samplesFor(1, 0))
	done := make(chan error, 1)
	go func() { done <- s.Flush(context.Background()) }()
	time.Sleep(30 * time.Millisecond)
	promoted.Store(true)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush did not finish after promotion")
	}
	if st := s.Stats(); st.ShippedBatches != 1 || st.PoisonedBatches != 0 || st.DroppedSamples != 0 {
		t.Fatalf("stats = %+v, want clean delivery after promotion", st)
	}
}

func TestShipperWaitsOutStorageDegraded(t *testing.T) {
	// The primary answers storage-degraded 503s before recovering. The
	// shipper must wait in place — honoring Retry-After, never rotating
	// to the second target, never charging the breaker — and deliver the
	// batch on the same target once the disk heals.
	var calls atomic.Int64
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Storage-Degraded", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"storage degraded: disk probe failed","code":"storage_degraded"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]int{"accepted": 1})
	}))
	defer primary.Close()
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("shipper rotated to the follower on a storage-degraded 503")
		w.Header().Set("X-Repl-Role", "follower")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer follower.Close()

	s := New(Config{
		URLs:        []string{primary.URL, follower.URL},
		AgentID:     "agent-degraded",
		MaxAttempts: 2, // degraded waits must NOT count toward exhaustion
	})
	s.Enqueue(samplesFor(1, 0))
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 450*time.Millisecond {
		t.Fatalf("Retry-After not honored: delivered after %v, want ≥ ~0.5s (jittered hint)", elapsed)
	}
	st := s.Stats()
	if st.ShippedBatches != 1 {
		t.Fatalf("shipped %d batches, want 1", st.ShippedBatches)
	}
	if st.DegradedWaits < 1 {
		t.Fatal("degraded wait not counted")
	}
	if st.Failovers != 0 {
		t.Fatalf("counted %d failovers, want 0", st.Failovers)
	}
	if st.BreakerOpens != 0 {
		t.Fatalf("breaker opened %d times on degraded 503s, want 0", st.BreakerOpens)
	}
	if st.ExhaustedBatch != 0 || st.DroppedSamples != 0 {
		t.Fatalf("degraded waits lost data: exhausted=%d dropped=%d", st.ExhaustedBatch, st.DroppedSamples)
	}
}

func TestShipperWaitsOutOverCapacity(t *testing.T) {
	// The primary answers an admission-control 429 (X-Over-Capacity)
	// before accepting. The shipper must wait in place — preferring the
	// millisecond retry hint over the coarse Retry-After, never rotating
	// to the follower, never charging the breaker — and re-deliver the
	// same seq flagged as a redelivery once the window passes.
	var calls atomic.Int64
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b trace.SampleBatch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if calls.Add(1) <= 1 {
			w.Header().Set("Retry-After", "30") // coarse hint; must lose
			w.Header().Set("X-Retry-After-Ms", "200")
			w.Header().Set("X-Over-Capacity", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"over capacity: ingest limiter","code":"over_capacity"}`))
			return
		}
		if !b.Redelivery {
			t.Error("retry after an over-capacity shed not flagged as redelivery")
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]int{"accepted": len(b.Samples)})
	}))
	defer primary.Close()
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("shipper rotated to the follower on an over-capacity 429")
		w.Header().Set("X-Repl-Role", "follower")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer follower.Close()

	s := New(Config{
		URLs:        []string{primary.URL, follower.URL},
		AgentID:     "agent-shed",
		MaxAttempts: 2, // shed waits must NOT count toward exhaustion
	})
	s.Enqueue(samplesFor(1, 0))
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 90*time.Millisecond {
		t.Fatalf("retry hint not honored: delivered after %v, want ≥ ~100ms (jittered 200ms hint)", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("delivered after %v: X-Retry-After-Ms (200ms) should win over Retry-After (30s)", elapsed)
	}
	st := s.Stats()
	if st.ShippedBatches != 1 {
		t.Fatalf("shipped %d batches, want 1", st.ShippedBatches)
	}
	if st.ShedWaits != 1 {
		t.Fatalf("ShedWaits = %d, want 1", st.ShedWaits)
	}
	if st.DegradedWaits != 0 {
		t.Fatalf("over-capacity shed miscounted as a degraded wait (%d)", st.DegradedWaits)
	}
	if st.Redeliveries != 1 {
		t.Fatalf("Redeliveries = %d, want 1", st.Redeliveries)
	}
	if st.Failovers != 0 {
		t.Fatalf("counted %d failovers, want 0", st.Failovers)
	}
	if st.BreakerOpens != 0 {
		t.Fatalf("breaker opened %d times on over-capacity 429s, want 0", st.BreakerOpens)
	}
	if st.ExhaustedBatch != 0 || st.DroppedSamples != 0 {
		t.Fatalf("shed waits lost data: exhausted=%d dropped=%d", st.ExhaustedBatch, st.DroppedSamples)
	}
}

func TestShipperRetryAfterJitterSpreadsHerd(t *testing.T) {
	// Thundering-herd regression: N shippers all shed in the same
	// over-capacity window must NOT come back in lockstep. Each jitters
	// the shared 1 s hint over [0.5s, 1s], so the retry arrivals spread
	// across the window instead of landing as one synchronized spike.
	const herd = 8
	var (
		mu      sync.Mutex
		seen    = map[string]int{}       // agent → calls
		retryAt = map[string]time.Time{} // agent → retry arrival
	)
	start := time.Now()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b trace.SampleBatch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		seen[b.AgentID]++
		first := seen[b.AgentID] == 1
		if !first {
			retryAt[b.AgentID] = time.Now()
		}
		mu.Unlock()
		if first {
			w.Header().Set("X-Retry-After-Ms", "1000")
			w.Header().Set("X-Over-Capacity", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"over capacity","code":"over_capacity"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]int{"accepted": len(b.Samples)})
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := New(Config{
				URL:     ts.URL,
				AgentID: "agent-" + strconv.Itoa(i),
				Seed:    int64(i + 1), // distinct seeds → distinct jitter
			})
			s.Enqueue(samplesFor(1, i*10))
			errs[i] = s.Flush(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shipper %d: %v", i, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(retryAt) != herd {
		t.Fatalf("got retries from %d agents, want %d", len(retryAt), herd)
	}
	var min, max time.Duration
	for _, at := range retryAt {
		d := at.Sub(start)
		if min == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// Everyone waited at least half the hint...
	if min < 400*time.Millisecond {
		t.Errorf("earliest retry after %v, want ≥ ~0.5s (half the hint)", min)
	}
	// ...but NOT all at the same instant: the jitter must spread the
	// herd across a meaningful slice of the [0.5s, 1s] window. A
	// synchronized (unjittered) herd would land within a few ms.
	if spread := max - min; spread < 100*time.Millisecond {
		t.Errorf("herd retries landed within %v of each other — jitter is not spreading the window", spread)
	}
}

// TestShipperRoutesByPrimaryHint: a follower's not_primary body names
// the primary; the shipper must jump straight to it, skipping targets
// in between.
func TestShipperRoutesByPrimaryHint(t *testing.T) {
	var srv ackServer
	tsP := httptest.NewServer(srv.handler())
	defer tsP.Close()
	var midHits atomic.Int64
	tsMid := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		midHits.Add(1)
		w.Header().Set("X-Repl-Role", "follower")
		http.Error(w, `{"error":"not primary","code":"not_primary"}`, http.StatusServiceUnavailable)
	}))
	defer tsMid.Close()
	tsF := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Repl-Role", "follower")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{
			"error": "not primary", "code": "not_primary", "primary": tsP.URL,
		})
	}))
	defer tsF.Close()

	s := New(Config{URLs: []string{tsF.URL, tsMid.URL, tsP.URL}, AgentID: "a",
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	s.Enqueue(samplesFor(2, 0))
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ShippedBatches != 1 || st.Target != tsP.URL {
		t.Fatalf("stats = %+v, want delivery on hinted target %q", st, tsP.URL)
	}
	if st.HintRoutes != 1 {
		t.Errorf("hint routes = %d, want 1", st.HintRoutes)
	}
	if n := midHits.Load(); n != 0 {
		t.Errorf("middle target contacted %d times, want 0 (hint should skip it)", n)
	}
}

// TestShipperRotatesOnExpiredLease: a primary that lost its election
// lease answers 503 + X-Repl-Lease: expired. The shipper must treat it
// like a wrong-role answer — rotate, don't wait in place — because a
// leaseless primary may stay leaseless for the whole partition.
func TestShipperRotatesOnExpiredLease(t *testing.T) {
	leaseless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Repl-Lease", "expired")
		http.Error(w, `{"error":"lease expired","code":"no_lease"}`, http.StatusServiceUnavailable)
	}))
	defer leaseless.Close()
	var srv ackServer
	tsP := httptest.NewServer(srv.handler())
	defer tsP.Close()

	s := New(Config{URLs: []string{leaseless.URL, tsP.URL}, AgentID: "a",
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	s.Enqueue(samplesFor(2, 0))
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ShippedBatches != 1 || st.Failovers != 1 || st.Target != tsP.URL {
		t.Fatalf("stats = %+v, want rotation off the leaseless primary onto %q", st, tsP.URL)
	}
	if st.DegradedWaits != 0 {
		t.Errorf("degraded waits = %d, want 0 (no_lease must not wait in place)", st.DegradedWaits)
	}
}
