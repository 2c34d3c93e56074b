package anomaly

import (
	"sync"
	"testing"
	"time"

	"hpcpower/internal/trace"
)

// fakeStore mirrors what tsdb does with fingerprints for jobs of one
// node and one sample a minute: one per job, updated per sample under a
// lock (observe), copied out on lookup. tsdb folds each minute L minutes
// after it opens; the fake folds at once.
type fakeStore struct {
	mu  sync.Mutex
	fps map[uint64]*Fingerprint
}

func newFakeStore() *fakeStore { return &fakeStore{fps: map[uint64]*Fingerprint{}} }

func (s *fakeStore) apply(batch []trace.PowerSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, smp := range batch {
		if smp.JobID == 0 {
			continue
		}
		fp := s.fps[smp.JobID]
		if fp == nil {
			fp = &Fingerprint{}
			s.fps[smp.JobID] = fp
		}
		observe(fp, smp.Unix, smp.PowerW)
	}
}

func (s *fakeStore) lookup(job uint64) (Fingerprint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp := s.fps[job]
	if fp == nil {
		return Fingerprint{}, false
	}
	return *fp, true
}

// harness couples a fake store with an engine, feeding samples the way
// the serving layer does: store first, then ObserveBatch.
type harness struct {
	store *fakeStore
	eng   *Engine
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	st := newFakeStore()
	cfg.Lookup = st.lookup
	eng := NewEngine(cfg)
	t.Cleanup(eng.Close)
	return &harness{store: st, eng: eng}
}

// feed applies samples in fixed-size batches.
func (h *harness) feed(samples []trace.PowerSample, batchSize int, traceID string) {
	if batchSize <= 0 {
		batchSize = 64
	}
	for len(samples) > 0 {
		n := batchSize
		if n > len(samples) {
			n = len(samples)
		}
		h.store.apply(samples[:n])
		h.eng.ObserveBatch(samples[:n], traceID)
		samples = samples[n:]
	}
}

// flatSeries builds a constant-power single-job series.
func flatSeries(job uint64, node int, start int64, minutes int, w float64) []trace.PowerSample {
	out := make([]trace.PowerSample, minutes)
	for i := range out {
		out[i] = trace.PowerSample{Node: node, JobID: job, Unix: start + int64(i)*60, PowerW: w}
	}
	return out
}

// alternating builds a high-variance series (never flat).
func alternating(job uint64, node int, start int64, minutes int, lo, hi float64) []trace.PowerSample {
	out := make([]trace.PowerSample, minutes)
	for i := range out {
		w := lo
		if i%2 == 1 {
			w = hi
		}
		out[i] = trace.PowerSample{Node: node, JobID: job, Unix: start + int64(i)*60, PowerW: w}
	}
	return out
}

func fires(e *Engine) []Event    { return e.Events(Filter{Type: EventFire, Node: -1}) }
func resolves(e *Engine) []Event { return e.Events(Filter{Type: EventResolve, Node: -1}) }

// TestEngineFireAndResolve walks one (job, rule) machine through the
// full hysteresis cycle on sample time alone.
func TestEngineFireAndResolve(t *testing.T) {
	h := newHarness(t, Config{})
	const job, node = 42, 7
	start := int64(1_700_000_000)

	// 45 minutes rock-flat at 200 W: flatline condition holds from
	// MinSamples on, fires after MinDuration (15 m) more.
	h.feed(flatSeries(job, node, start, 45, 200), 5, "trace-fire")
	fs := fires(h.eng)
	if len(fs) != 1 {
		t.Fatalf("got %d fire events, want 1: %+v", len(fs), fs)
	}
	ev := fs[0]
	if ev.Rule != DetectFlatline || ev.Job != job || ev.Node != node {
		t.Fatalf("bad fire event: %+v", ev)
	}
	if ev.Trace != "trace-fire" {
		t.Fatalf("fire event trace = %q, want the triggering batch's ID", ev.Trace)
	}
	if ev.Severity != SeverityCritical || ev.Message == "" {
		t.Fatalf("fire event missing severity/message: %+v", ev)
	}
	active := h.eng.Active()
	if len(active) != 1 || active[0].Job != job || active[0].Rule != DetectFlatline {
		t.Fatalf("active alerts = %+v, want the flatline alert", active)
	}

	// 15 minutes of mild alternation: variance recovers (clearing the
	// flatline condition) without swinging far enough to trip the
	// overshoot rule; resolve lands after ResolveAfter (10 m).
	h.feed(alternating(job, node, start+45*60, 15, 180, 230), 5, "trace-resolve")
	rs := resolves(h.eng)
	if len(rs) != 1 {
		t.Fatalf("got %d resolve events, want 1: %+v", len(rs), rs)
	}
	if rs[0].FiredUnix != ev.Unix {
		t.Fatalf("resolve.FiredUnix = %d, want the fire time %d", rs[0].FiredUnix, ev.Unix)
	}
	if len(h.eng.Active()) != 0 {
		t.Fatalf("alert still active after resolve: %+v", h.eng.Active())
	}
	st := h.eng.Snapshot()
	if st.Fired != 1 || st.Resolved != 1 || st.Active != 0 {
		t.Fatalf("counters fired=%d resolved=%d active=%d, want 1/1/0", st.Fired, st.Resolved, st.Active)
	}
}

// TestObserveBatchGroupsSplitRuns: a job whose samples come in several
// runs of one batch — around idle samples and another job — is still
// one job of that batch, and its alert names the node of its newest
// sample wherever in the batch that sample sits.
func TestObserveBatchGroupsSplitRuns(t *testing.T) {
	h := newHarness(t, Config{})
	const job, other = 42, 43
	start := int64(1_700_000_000)
	for m := int64(0); m < 45; m++ {
		at := start + m*60
		batch := []trace.PowerSample{
			{Node: 1, JobID: job, Unix: at, PowerW: 200},
			{Node: 2, JobID: job, Unix: at + 30, PowerW: 200}, // the newest
			{Node: 9, JobID: 0, Unix: at + 50, PowerW: 60},
			{Node: 5, JobID: other, Unix: at + 40, PowerW: 150 + 80*float64(m%2)},
			{Node: 3, JobID: job, Unix: at + 10, PowerW: 200},
		}
		h.store.apply(batch)
		h.eng.ObserveBatch(batch, "t")
	}
	fs := fires(h.eng)
	if len(fs) != 1 || fs[0].Rule != DetectFlatline || fs[0].Job != job || fs[0].Node != 2 {
		t.Fatalf("fire events = %+v, want one flatline on job %d naming node 2", fs, job)
	}
}

// TestEngineDedupWhileFiring: a firing pair emits exactly one fire
// event no matter how long the condition keeps holding.
func TestEngineDedupWhileFiring(t *testing.T) {
	h := newHarness(t, Config{})
	const job = 9
	start := int64(1_700_000_000)
	h.feed(flatSeries(job, 1, start, 240, 150), 10, "t")
	if got := len(fires(h.eng)); got != 1 {
		t.Fatalf("4 hours of a held condition fired %d times, want 1", got)
	}
	st := h.eng.Snapshot()
	if st.Suppressed == 0 {
		t.Fatal("dedup did not count suppressed duplicates")
	}
	if st.Active != 1 {
		t.Fatalf("active = %d, want 1", st.Active)
	}
}

// TestEngineMinDurationGate: a condition that holds for less than
// MinDuration never fires.
func TestEngineMinDurationGate(t *testing.T) {
	h := newHarness(t, Config{})
	const job = 5
	start := int64(1_700_000_000)
	// Flat long enough for the condition to activate (MinSamples is 15)
	// but well short of flatline's 15-minute MinDuration from condition
	// start, then mildly noisy so the condition clears.
	h.feed(flatSeries(job, 1, start, 20, 200), 5, "t")
	h.feed(alternating(job, 1, start+20*60, 30, 180, 230), 5, "t")
	for _, ev := range fires(h.eng) {
		if ev.Rule == DetectFlatline {
			t.Fatalf("flatline fired without holding MinDuration: %+v", ev)
		}
	}
}

// TestEngineProfilesDetected is the detector-quality gate: every
// injector profile is caught by its matching detector, the control
// profile stays silent, and Score reports perfect precision/recall.
func TestEngineProfilesDetected(t *testing.T) {
	h := newHarness(t, Config{})
	start := int64(1_700_000_000)
	labels := Labels{}
	var all []trace.PowerSample
	jobs := append([]string{ProfileNormal}, Profiles()...)
	for i, profile := range jobs {
		job := uint64(100 + i)
		labels[job] = profile
		s, err := GenProfile(profile, job, 10+i, start, 120, 220, int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, s...)
	}
	// Interleave by time the way live ingest would deliver, in batches
	// spanning ~5 sample-minutes: hysteresis advances only at batch
	// evaluations, so batches must slice time finer than the rules'
	// MinDuration windows (TestAnomalyRounds ships them the same way).
	sortByUnix(all)
	h.feed(all, 25, "t")

	fs := fires(h.eng)
	v := Score(labels, fs)
	if v.Recall != 1 {
		t.Fatalf("recall = %v (missed jobs %v); fires: %+v", v.Recall, v.Missed, fs)
	}
	if v.Precision != 1 {
		t.Fatalf("precision = %v (false-positive jobs %v); fires: %+v", v.Precision, v.FalseJobs, fs)
	}
	for _, ev := range fs {
		if labels[ev.Job] == ProfileNormal {
			t.Fatalf("the control job fired %s: %+v", ev.Rule, ev)
		}
	}
}

func sortByUnix(s []trace.PowerSample) {
	// Insertion-free stable sort via the standard library would import
	// sort; keep it simple and explicit.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Unix < s[j-1].Unix; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestEngineDeliverGate: a follower records events but sinks stay
// silent until promotion.
func TestEngineDeliverGate(t *testing.T) {
	sink := &captureSink{}
	h := newHarness(t, Config{Sinks: []Sink{sink}})
	h.eng.SetDeliver(false)
	const job = 3
	start := int64(1_700_000_000)
	h.feed(flatSeries(job, 1, start, 60, 150), 10, "t")
	if got := len(fires(h.eng)); got != 1 {
		t.Fatalf("follower ring recorded %d fires, want 1", got)
	}
	if n := sink.count(); n != 0 {
		t.Fatalf("follower delivered %d events to sinks, want 0", n)
	}
	h.eng.SetDeliver(true)
	if !h.eng.Delivering() {
		t.Fatal("Delivering() = false after SetDeliver(true)")
	}
	// New transitions after promotion do reach the sink.
	h.feed(alternating(job, 1, start+60*60, 15, 100, 300), 10, "t")
	if n := sink.count(); n == 0 {
		t.Fatal("promoted engine delivered nothing to sinks")
	}
}

// captureSink records delivered events.
type captureSink struct {
	mu  sync.Mutex
	evs []Event
}

func (s *captureSink) Name() string { return "capture" }
func (s *captureSink) Send(ev Event) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}
func (s *captureSink) Health() SinkHealth {
	return SinkHealth{Name: "capture", Healthy: true, Delivered: int64(s.count())}
}
func (s *captureSink) Close() {}
func (s *captureSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.evs)
}

// TestEngineEventFilters exercises the ring query surface.
func TestEngineEventFilters(t *testing.T) {
	h := newHarness(t, Config{})
	start := int64(1_700_000_000)
	h.feed(flatSeries(21, 1, start, 60, 150), 10, "t") // flatline (critical)
	// Zombie: active then floor.
	zs, _ := GenProfile(DetectZombie, 22, 2, start, 120, 220, 7)
	h.feed(zs, 10, "t")

	all := h.eng.Events(Filter{Node: -1})
	if len(all) < 2 {
		t.Fatalf("expected at least 2 events, got %+v", all)
	}
	// Newest first.
	for i := 1; i < len(all); i++ {
		if all[i].Seq > all[i-1].Seq {
			t.Fatal("events not newest-first")
		}
	}
	onlyJob := h.eng.Events(Filter{Job: 21, Node: -1})
	for _, ev := range onlyJob {
		if ev.Job != 21 {
			t.Fatalf("job filter leaked %+v", ev)
		}
	}
	crit := h.eng.Events(Filter{Node: -1, MinSeverity: SeverityLevel(SeverityCritical)})
	for _, ev := range crit {
		if ev.Severity != SeverityCritical {
			t.Fatalf("severity filter leaked %+v", ev)
		}
	}
	if got := h.eng.Events(Filter{Node: -1, Limit: 1}); len(got) != 1 {
		t.Fatalf("limit filter returned %d events", len(got))
	}
	if got := h.eng.Events(Filter{Node: 2}); len(got) == 0 {
		t.Fatal("node filter dropped everything")
	}
	seq := all[len(all)-1].Seq
	after := h.eng.Events(Filter{Node: -1, SinceSeq: seq})
	for _, ev := range after {
		if ev.Seq <= seq {
			t.Fatalf("since-seq filter leaked %+v", ev)
		}
	}
}

// TestEngineSubscribe: streaming consumers see new events.
func TestEngineSubscribe(t *testing.T) {
	h := newHarness(t, Config{})
	id, ch := h.eng.Subscribe(16)
	defer h.eng.Unsubscribe(id)
	start := int64(1_700_000_000)
	h.feed(flatSeries(31, 1, start, 60, 150), 10, "t")
	select {
	case ev := <-ch:
		if ev.Type != EventFire || ev.Job != 31 {
			t.Fatalf("streamed event %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event streamed to subscriber")
	}
}

// TestRingEviction: the ring keeps the newest events and counts what
// it evicted.
func TestRingEviction(t *testing.T) {
	r := newRing(4)
	for i := 1; i <= 10; i++ {
		r.append(Event{Type: EventFire, Job: uint64(i), Unix: int64(i)})
	}
	evs, seq := r.snapshot()
	if seq != 10 || len(evs) != 4 {
		t.Fatalf("seq=%d stored=%d, want 10/4", seq, len(evs))
	}
	if evs[0].Job != 7 || evs[3].Job != 10 {
		t.Fatalf("ring kept wrong window: %+v", evs)
	}
	_, evicted, stored := r.stats()
	if evicted != 6 || stored != 4 {
		t.Fatalf("evicted=%d stored=%d, want 6/4", evicted, stored)
	}
}

func TestScore(t *testing.T) {
	labels := Labels{1: DetectFlatline, 2: DetectZombie, 3: ProfileNormal}
	fs := []Event{
		{Type: EventFire, Job: 1, Detector: DetectFlatline},
		{Type: EventFire, Job: 2, Detector: DetectOvershoot}, // wrong detector: miss
		{Type: EventFire, Job: 3, Detector: DetectDrift},     // control job: FP
		{Type: EventFire, Job: 9, Detector: DetectZombie},    // unlabeled job: FP
		{Type: EventResolve, Job: 4, Detector: DetectZombie}, // resolves never count
	}
	v := Score(labels, fs)
	if v.Injected != 2 || v.Detected != 1 {
		t.Fatalf("injected=%d detected=%d, want 2/1", v.Injected, v.Detected)
	}
	if v.Recall != 0.5 {
		t.Fatalf("recall = %v, want 0.5", v.Recall)
	}
	// Jobs that fired: 1 (TP), 2 (anomalous: TP at job level), 3 (FP), 9 (FP).
	if v.Precision != 0.5 {
		t.Fatalf("precision = %v, want 0.5", v.Precision)
	}
	if len(v.Missed) != 1 || v.Missed[0] != 2 {
		t.Fatalf("missed = %v, want [2]", v.Missed)
	}
	if len(v.FalseJobs) != 2 {
		t.Fatalf("false jobs = %v, want two", v.FalseJobs)
	}
	// Empty inputs: perfect by definition.
	empty := Score(Labels{}, nil)
	if empty.Precision != 1 || empty.Recall != 1 {
		t.Fatalf("empty score = %+v", empty)
	}
}
