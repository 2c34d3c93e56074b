package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpcpower/internal/elect"
	"hpcpower/internal/ship"
	"hpcpower/internal/trace"
)

// TestPipelineZeroLossZeroDup is the memory-only delivery round: one
// shipper delivers 40 minutes of 8 nodes over a network that fails ≥ 10 %
// of the ingest requests with every fault kind, and the node ends
// holding each batch once and serving, byte for byte, the analytics of a
// control that took them without a fault. One ingest worker applies in
// arrival order, as the control does.
func TestPipelineZeroLossZeroDup(t *testing.T) {
	node := testNode{cfg: Config{QueueDepth: 64, IngestWorkers: 1}}
	s, ts := node.start(t)
	var net faultNet
	const agent = "pipeline-agent"
	sh := ship.New(ship.Config{
		URL:     net.ingest(ts.URL, faults{drop: 0.10, err5xx: 0.08, reset: 0.08, truncate: 0.05, seed: 99}),
		AgentID: agent, Client: net.client(),
		BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		BreakerThreshold: 4, BreakerCooldown: 20 * time.Millisecond,
		MaxPending: 1024, Seed: 5,
	})
	var sent []trace.SampleBatch
	for m := 0; m < 40; m++ {
		b := trace.SampleBatch{AgentID: agent}
		for n := 0; n < 8; n++ {
			b.Samples = append(b.Samples, trace.PowerSample{Node: n, JobID: uint64(1 + n/3),
				Unix: int64(6000 + 60*m), PowerW: 100 + float64(n) + float64(m%7)})
		}
		b.Seq = sh.Enqueue(b.Samples)
		sent = append(sent, b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := sh.Flush(ctx); err != nil {
		t.Fatalf("%v: %+v", err, sh.Stats())
	}
	checkShipped(t, "the shipper", sh.Stats(), len(sent))
	net.checkFired(t)
	waitIngested(t, s, int64(40*8))
	checkAckedOnce(t, s, sent, len(sent))
	checkSameAsControl(t, "the node", analyticsOf(t, s, ts.URL), controlAnalytics(t, node, sent))

	// The re-sends after a reset or a truncation were duplicates the node
	// absorbed, counted on /metrics beside the agent's health gauges.
	_, body := get(t, ts.URL+"/metrics")
	for _, series := range []string{
		"powserved_batches_duplicate_total ", "powserved_redeliveries_total ",
		`powserved_agent_breaker_state{agent="pipeline-agent"} `,
		`powserved_agent_retries{agent="pipeline-agent"} `,
		`powserved_agent_spill_depth{agent="pipeline-agent"} `,
	} {
		if !strings.Contains(string(body), "\n"+series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
	for _, zero := range []string{"powserved_batches_duplicate_total 0\n", "powserved_redeliveries_total 0\n"} {
		if strings.Contains(string(body), "\n"+zero) {
			t.Errorf("/metrics reads %q: the ambiguous faults did not reach dedup", strings.TrimSpace(zero))
		}
	}
}

// faultNetAnswer is the body faultNetBackend answers every request with.
const faultNetAnswer = `{"accepted":1,"padding":"0123456789"}`

// faultNetBackend is a node stand-in that answers every request 202 with
// faultNetAnswer and echoes the path, query and body it was sent; reached
// counts the requests that got to it.
func faultNetBackend(t *testing.T) (url string, reached *atomic.Int64) {
	reached = new(atomic.Int64)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo", r.URL.Path+"?"+r.URL.RawQuery+" "+string(body))
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, faultNetAnswer)
	}))
	t.Cleanup(backend.Close)
	return backend.URL, reached
}

// faultNetCase is one ingest request through a faultNet with the given
// faults: which kind fires, or -1; whether the node sees the request; and
// what the client sees, a transport error or else a status and a body,
// read up to readErr.
type faultNetCase struct {
	name    string
	f       faults
	fired   int
	reach   bool
	err     error
	status  int
	body    string
	readErr error
}

func (tc faultNetCase) run(t *testing.T) {
	backend, reached := faultNetBackend(t)
	var net faultNet
	url := net.ingest(backend, tc.f)
	resp, err := net.client().Post(url+"?x=1", "application/json", strings.NewReader("hello"))
	if !errors.Is(err, tc.err) {
		t.Fatalf("transport error %v, want %v", err, tc.err)
	}
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !errors.Is(rerr, tc.readErr) || resp.StatusCode != tc.status || string(body) != tc.body {
			t.Errorf("got %d %q (read error %v), want %d %q", resp.StatusCode, body, rerr, tc.status, tc.body)
		}
		if echo := resp.Header.Get("X-Echo"); tc.reach && echo != "/v1/samples?x=1 hello" {
			t.Errorf("the node was sent %q", echo)
		}
	}
	if n := reached.Load(); n != int64(b2i(tc.reach)) {
		t.Errorf("the request reached the node %d times", n)
	}
	for k, name := range faultNames {
		if got, want := net.targets[backend].fired[k].Load(), int64(b2i(k == tc.fired)); got != want {
			t.Errorf("%s fired %d times, want %d", name, got, want)
		}
	}
}

// TestFaultNetPassThrough: an ingest request nothing faults reaches the
// node untouched, and its answer comes back whole.
func TestFaultNetPassThrough(t *testing.T) {
	faultNetCase{"clean", faults{}, -1, true, nil, http.StatusAccepted, faultNetAnswer, nil}.run(t)
}

// TestFaultNetInjectsConfiguredFaults: each fault kind at rate 1 fires on
// the ingest path and reaches the client as a lossy network shows it.
func TestFaultNetInjectsConfiguredFaults(t *testing.T) {
	for _, tc := range []faultNetCase{
		{"drop", faults{drop: 1}, faultDrop, false, errFaultDrop, 0, "", nil},
		{"502", faults{err5xx: 1}, fault5xx, false, nil, http.StatusBadGateway, `{"error":"faulting network: injected 502"}`, nil},
		{"reset", faults{reset: 1}, faultReset, true, errFaultReset, 0, "", nil},
		{"truncate", faults{truncate: 1}, faultTruncate, true, nil, http.StatusAccepted, faultNetAnswer[:len(faultNetAnswer)/2], io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestFaultNetPathPrefixExemption: paths other than ingest (metrics,
// election, replication) pass clean under every fault.
func TestFaultNetPathPrefixExemption(t *testing.T) {
	backend, _ := faultNetBackend(t)
	var net faultNet
	net.ingest(backend, faults{drop: 1, reset: 1})
	for _, path := range []string{"/metrics", elect.PathHeartbeat, elect.PathVote, "/v1/repl/stream", "/v1/repl/ack", "/v1/repl/snapshot"} {
		resp, err := net.client().Post(backend+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != faultNetAnswer {
			t.Errorf("%s: %q, %v", path, body, err)
		}
	}
	for k, name := range faultNames {
		if n := net.targets[backend].fired[k].Load(); n != 0 {
			t.Errorf("%s fired %d times off the ingest path", name, n)
		}
	}
}
