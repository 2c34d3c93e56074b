package serve

// The claims the drills make — TestCrashPoints, TestFailoverRounds,
// TestOverloadRounds and TestAnomalyRounds — each stated once. A harness
// checks its nodes through these functions and no private version of
// them; TestInvariantsBite feeds each a crafted violation.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/ship"
	"hpcpower/internal/trace"
)

// checkAckedOnce is the first claim: every acked (agent, seq) is present
// exactly once. batches are what was offered to s, the first acked of
// them acked; any other may be present too, if it was applied before its
// ack was lost. It answers the batches s holds.
func checkAckedOnce(t testing.TB, s *Server, batches []trace.SampleBatch, acked int) (present []trace.SampleBatch) {
	t.Helper()
	var samples int64
	for i, b := range batches {
		if !s.dedup.Seen(b.AgentID, b.Seq) {
			if i < acked {
				t.Errorf("acked batch %s/%d is missing", b.AgentID, b.Seq)
			}
			continue
		}
		present = append(present, b)
		samples += int64(len(b.Samples))
	}
	if got := s.store.Ingested(); got != samples {
		t.Errorf("the store holds %d samples; the %d batches it counted hold %d", got, len(present), samples)
	}
	return present
}

// leaseLog is every epoch a harness saw led, and by which nodes.
type leaseLog struct {
	mu  sync.Mutex
	led map[uint64]map[string]bool
}

func (l *leaseLog) saw(epoch uint64, node string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.led == nil {
		l.led = map[uint64]map[string]bool{}
	}
	if l.led[epoch] == nil {
		l.led[epoch] = map[string]bool{}
	}
	l.led[epoch][node] = true
}

// checkOneLeaseHolder is the second claim: at most one lease-holder per
// epoch. holders are the nodes holding the lease now, which may be one at
// most; led is what the run saw lead, each epoch by one node at most.
func checkOneLeaseHolder(t testing.TB, holders []string, led *leaseLog) {
	t.Helper()
	if len(holders) > 1 {
		t.Errorf("%d lease-holders at once: %v", len(holders), holders)
	}
	led.mu.Lock()
	defer led.mu.Unlock()
	for epoch, nodes := range led.led {
		if len(nodes) > 1 {
			t.Errorf("epoch %d led by %d nodes: %v", epoch, len(nodes), nodes)
		}
	}
}

// checkFollowerMatches is the third claim: at equal LSN a follower holds
// its primary's state.
func checkFollowerMatches(t testing.TB, primary, follower *Server) {
	t.Helper()
	if p, f := primary.dur.repl.source.Watermark(), follower.dur.repl.replApplied.Load(); p != f {
		t.Errorf("the follower applied up to lsn %d, the primary streams %d", f, p)
		return
	}
	if p, f := stateOf(primary).forgetDeliveries().String(), stateOf(follower).forgetDeliveries().String(); p != f {
		t.Errorf("the follower's state differs from the primary's\n got %s\nwant %s", f, p)
	}
}

// analytics is what a node answers of its data: the served analyticsDump
// and its alert history, without the trace IDs only a shipper mints.
type analytics struct {
	served string
	alerts []anomaly.Event
}

func analyticsOf(t testing.TB, s *Server, url string) analytics {
	t.Helper()
	a := analytics{served: analyticsDump(t, url)}
	if s.anom != nil {
		a.alerts = s.anom.Events(anomaly.Filter{Node: -1})
		for i := range a.alerts {
			a.alerts[i].Trace = ""
		}
	}
	return a
}

// controlAnalytics boots n, the control, feeds it batches in order and
// without a fault, and answers its analytics.
func controlAnalytics(t testing.TB, n testNode, batches []trace.SampleBatch) analytics {
	t.Helper()
	s, ts := n.start(t)
	waitIngested(t, s, sendAll(t, ts.URL, batches))
	return analyticsOf(t, s, ts.URL)
}

// checkSameAsControl is the fourth claim: a node serves the analytics,
// and holds the alert history, of a fault-free control, to the byte —
// which exact moments give whatever order the node applied its batches
// in, as long as its agents stay within the 16-minute spread window of
// each other (and within 2 minutes for the alerts).
func checkSameAsControl(t testing.TB, what string, got, want analytics) {
	t.Helper()
	if got.served != want.served {
		t.Errorf("%s: analytics differ from the control's\n got %s\nwant %s", what, got.served, want.served)
	}
	if g, w := fmt.Sprintf("%+v", got.alerts), fmt.Sprintf("%+v", want.alerts); g != w {
		t.Errorf("%s: alerts differ from the control's\n got %s\nwant %s", what, g, w)
	}
}

// checkFrontierHeld is the fifth claim: the frontier never regresses — a
// node's block frontier is at or above the last one a completed publish
// raised it to.
func checkFrontierHeld(t testing.TB, s *Server, published int64) {
	t.Helper()
	if f := s.store.BlockFrontier(); f < published {
		t.Errorf("block frontier %d, below the %d a completed publish raised it to", f, published)
	}
}

// checkShipped is the sixth claim: the shipper gave up on nothing — it
// acked every one of the offered batches and dropped, poisoned or
// exhausted none.
func checkShipped(t testing.TB, who string, st ship.Stats, offered int) {
	t.Helper()
	if st.ShippedBatches != int64(offered) || st.DroppedSamples != 0 || st.PoisonedBatches != 0 || st.ExhaustedBatch != 0 {
		t.Errorf("%s shipped %d of %d batches and gave up on some: %+v", who, st.ShippedBatches, offered, st)
	}
}

// recordingTB is a testing.TB that records the failures the claims
// report (Errorf; Fatal and Fatalf from the helpers they call) instead of
// reporting them.
type recordingTB struct {
	testing.TB
	failed []string
}

func (r *recordingTB) Helper() {}

func (r *recordingTB) Errorf(format string, a ...any) {
	r.failed = append(r.failed, fmt.Sprintf(format, a...))
}

func (r *recordingTB) Fatalf(format string, a ...any) { r.Errorf(format, a...); runtime.Goexit() }
func (r *recordingTB) Fatal(a ...any)                 { r.Fatalf("%s", fmt.Sprint(a...)) }

// reports runs check against a recordingTB, on a goroutine of its own so
// that Fatal ends only the check, and answers what it reported.
func reports(t *testing.T, check func(t testing.TB)) []string {
	rec := &recordingTB{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		check(rec)
	}()
	<-done
	return rec.failed
}

// TestInvariantsBite feeds every claim a crafted violation, and the same
// input without it: the claim must report the one and pass the other.
func TestInvariantsBite(t *testing.T) {
	batches := stampedBatches(33, 6)
	// node boots a node, durable if asked, and counts and applies bs in it
	// by hand.
	node := func(bs []trace.SampleBatch, durable bool) (*Server, string) {
		n := testNode{}
		if durable {
			n = testNode{dir: t.TempDir(), quiet: true}
		}
		s, ts := n.start(t)
		for _, b := range bs {
			s.dedup.Mark(b.AgentID, b.Seq)
			if err := s.store.Append(b.Samples); err != nil {
				t.Fatal(err)
			}
		}
		return s, ts.URL
	}
	changed := slices.Clone(batches)
	changed[2].Samples = slices.Clone(changed[2].Samples)
	changed[2].Samples[0].PowerW++

	// Each case boots its nodes on the test's goroutine and answers the
	// claim to run against them.
	for _, tc := range []struct {
		name  string
		input func(bent bool) func(t testing.TB)
	}{
		{"an acked batch missing", func(bent bool) func(t testing.TB) {
			s, _ := node(batches[:len(batches)-b2i(bent)], false)
			return func(t testing.TB) { checkAckedOnce(t, s, batches, len(batches)) }
		}},
		{"an acked batch doubled", func(bent bool) func(t testing.TB) {
			s, _ := node(append(slices.Clone(batches), batches[:b2i(bent)]...), false)
			return func(t testing.TB) { checkAckedOnce(t, s, batches, len(batches)) }
		}},
		{"two lease-holders at one epoch", func(bent bool) func(t testing.TB) {
			var led leaseLog
			led.saw(3, "a")
			led.saw(uint64(4-b2i(bent)), "b")
			return func(t testing.TB) { checkOneLeaseHolder(t, []string{"b"}, &led) }
		}},
		{"a follower one record behind at equal LSN", func(bent bool) func(t testing.TB) {
			p, _ := node(batches, true)
			f, _ := node(batches[:len(batches)-b2i(bent)], true)
			p.dur.repl.source.Advance(uint64(len(batches)))
			f.dur.repl.replApplied.Store(uint64(len(batches)))
			return func(t testing.TB) { checkFollowerMatches(t, p, f) }
		}},
		{"a lowered frontier", func(bent bool) func(t testing.TB) {
			s, _ := node(nil, false)
			return func(t testing.TB) { checkFrontierHeld(t, s, int64(600*b2i(bent))) }
		}},
		{"one job's analytics differing from the control", func(bent bool) func(t testing.TB) {
			got := batches
			if bent {
				got = changed
			}
			s, url := node(got, false)
			ctl, ctlURL := node(batches, false)
			return func(t testing.TB) {
				checkSameAsControl(t, "the node", analyticsOf(t, s, url), analyticsOf(t, ctl, ctlURL))
			}
		}},
		{"a shipper that dropped a batch", func(bent bool) func(t testing.TB) {
			st := ship.Stats{ShippedBatches: int64(6 - b2i(bent)), DroppedSamples: int64(3 * b2i(bent))}
			return func(t testing.TB) { checkShipped(t, "the shipper", st, 6) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := reports(t, tc.input(false)); len(got) != 0 {
				t.Errorf("reported a clean input: %v", got)
			}
			if got := reports(t, tc.input(true)); len(got) == 0 {
				t.Error("did not report the violation")
			}
		})
	}
}
