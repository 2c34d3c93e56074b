package serve

// The one way a test boots a node (testNode), the in-process state two
// nodes are compared by (stateOf), and the faulting network the
// delivery rounds ship through (faultNet).

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/block"
	"hpcpower/internal/elect"
	"hpcpower/internal/mlearn"
	"hpcpower/internal/obs"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/vfs"
)

// testNode is a node a test boots with start. The zero value is a
// memory-only node with New's defaults over a 4-shard store of 256-point
// rings, without a model or detectors.
type testNode struct {
	// dir makes the node durable over that data dir; dur is the rest of
	// its configuration (its Dir is dir, its FS carries the block store
	// too).
	dir string
	dur DurabilityConfig
	// quiet keeps a durable node's background work out of the test's
	// way: no scheduled snapshot, one disk check at start.
	quiet bool
	// follow makes the node a follower of the primary at that URL, with
	// cadences tightened for test speed.
	follow string
	// elect is attached between NewDurable and Recover, as powserved
	// attaches it under -peer. Its URL defaults to the node's own, its
	// State to a promise file of the test's, its Transport to HTTP. With
	// a Clock of its own the test ticks it by hand: no Run loop.
	elect *elect.Config

	// cfg configures the server; on a durable node zero IngestWorkers
	// means one, so apply order is LSN order, the order of replay and of
	// a follower, whatever the agents' skew (with more workers, late
	// samples can make a job's trend depend on the order), and a test's
	// timing is the same from run to run.
	cfg     Config
	ringLen int // 0 means 256
	model   *mlearn.BDT
	// anomaly runs the default detectors on the store; alerts, if set,
	// receives their log sink's lines.
	anomaly bool
	alerts  io.Writer
	// blockWindow attaches a block store of that window, in "blocks"
	// beside a durable node's data dir (both made if missing) and in a
	// temp dir otherwise.
	blockWindow int64
}

// start boots the node, recovers and serves it, and stops it when the
// test ends, unless crash stopped it first.
func (n testNode) start(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	s, ts, err := n.tryStart(t)
	if err != nil {
		t.Fatal(err)
	}
	return s, ts
}

// tryStart is start answering a refusal to start — block.Open's,
// NewDurable's or Recover's — instead of failing the test.
func (n testNode) tryStart(t testing.TB) (*Server, *httptest.Server, error) {
	t.Helper()
	store := tsdb.New(tsdb.Config{Shards: 4, RingLen: cmp.Or(n.ringLen, 256)})
	if n.blockWindow > 0 {
		dir := t.TempDir()
		if n.dir != "" {
			dir = filepath.Join(filepath.Dir(n.dir), "blocks")
			for _, d := range []string{n.dir, dir} {
				if err := os.MkdirAll(d, 0o755); err != nil {
					t.Fatal(err)
				}
			}
		}
		bs, err := block.Open(block.Config{Dir: dir, WindowSeconds: n.blockWindow, FS: n.dur.FS})
		if err != nil {
			return nil, nil, err
		}
		store.AttachBlocks(bs)
	}
	cfg := n.cfg
	if n.dir != "" {
		cfg.IngestWorkers = cmp.Or(cfg.IngestWorkers, 1)
	}
	if n.anomaly {
		acfg := anomaly.Config{Lookup: store.JobFingerprint}
		if n.alerts != nil {
			acfg.Sinks = []anomaly.Sink{anomaly.NewLogSink(obs.NewLogger(obs.LogConfig{Output: n.alerts}))}
		}
		cfg.Anomaly = anomaly.NewEngine(acfg)
	}
	if n.dir == "" {
		s := New(store, n.model, cfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return s, ts, nil
	}

	dcfg := n.dur
	dcfg.Dir = n.dir
	if n.quiet {
		dcfg.SnapshotInterval, dcfg.SnapshotEvery, dcfg.DiskCheckInterval = time.Hour, 1<<30, time.Hour
	}
	if n.follow != "" {
		dcfg.Replication = &ReplicationConfig{Role: RoleFollower, PrimaryURL: n.follow, FollowerID: "f1",
			AckEvery: 10 * time.Millisecond, HeartbeatEvery: 25 * time.Millisecond, StallTimeout: 2 * time.Second}
	}
	s, err := NewDurable(store, n.model, cfg, dcfg)
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(s.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	stop := func() {
		cancel()
		ts.Close()
		if el := s.elector.Load(); el != nil {
			el.Close()
		}
		select {
		case <-s.dur.stopc: // crashed, or closed already
		default:
			s.Close()
		}
	}
	t.Cleanup(stop)
	if n.elect != nil {
		ec := *n.elect
		ec.URL = cmp.Or(ec.URL, ts.URL)
		if ec.State == nil {
			if ec.State, err = elect.OpenStateFile(vfs.OS, filepath.Join(t.TempDir(), "ELECT")); err != nil {
				t.Fatal(err)
			}
		}
		if ec.Transport == nil {
			ec.Transport = &elect.HTTPTransport{}
		}
		runCtx := ctx
		if ec.Clock != nil {
			var endRun context.CancelFunc
			runCtx, endRun = context.WithCancel(ctx)
			endRun() // Run returns at once
		}
		if _, err := s.StartElection(runCtx, ec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Recover(); err != nil {
		stop()
		return nil, nil, err
	}
	return s, ts, nil
}

// nodeState is what a snapshot of a node holds — store, dedup index and
// alert engine — and its block catalog's stats: the in-process oracle
// two nodes are compared by. A comparison that must ignore a part zeroes
// that part at the call site.
type nodeState struct {
	Store   *tsdb.StoreState
	Dedup   *tsdb.DeduperState
	Anomaly *anomaly.EngineState
	Blocks  *block.Stats
}

func stateOf(s *Server) nodeState {
	st := nodeState{Store: s.store.ExportState(), Dedup: s.dedup.ExportState()}
	if s.anom != nil {
		st.Anomaly = s.anom.ExportState()
	}
	if bs := s.store.Blocks(); bs != nil {
		stats := bs.Stats()
		st.Blocks = &stats
	}
	return st
}

// forgetDeliveries zeroes the dedup index's LRU clock, which counts
// every delivery a node saw, duplicates and cancelled ones too: nodes
// that took the same batches through different re-sends — a follower
// sees only what was logged — hold the same marks at different clocks.
func (st nodeState) forgetDeliveries() nodeState {
	st.Dedup.Clock = 0
	for i := range st.Dedup.Agents {
		st.Dedup.Agents[i].Touched = 0
	}
	return st
}

// String is the state as JSON, the form states are compared in.
func (st nodeState) String() string {
	out, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return string(out)
}

// faultNet is the seeded faulting network a delivery round ships
// through: the RoundTripper of its shippers' client. It faults only the
// /v1/samples requests to the targets given rates, each target drawing
// from a seeded source of its own, in two rolls:
//
//   - before the node sees the request: dropped (a transport error) or
//     answered 502, which test pure retry;
//   - after the node answered: reset (a transport error) or its body cut
//     to half under the full length, ambiguous failures whose re-sends
//     arrive as duplicates, the case idempotent ingest exists for.
//
// Every other request (/metrics, elections, replication) passes clean.
type faultNet struct {
	targets map[string]*faultTarget // by scheme://host
}

// faults are the rates of the four fault kinds, probabilities in [0, 1]:
// drop and 502 share the first roll, reset and truncate the second.
// seed seeds the target's source; 0 means 1.
type faults struct {
	drop, err5xx, reset, truncate float64
	seed                          int64
}

const (
	faultDrop = iota
	fault5xx
	faultReset
	faultTruncate
	numFaults
)

var faultNames = [numFaults]string{"drop", "502", "reset", "truncate"}

type faultTarget struct {
	rates [numFaults]float64
	mu    sync.Mutex
	rng   *rand.Rand
	fired [numFaults]atomic.Int64
}

var (
	errFaultDrop  = errors.New("faulting network: request dropped")
	errFaultReset = errors.New("faulting network: reset after the node answered")
)

// ingest faults target's ingest path at f and answers that path's URL.
// Every target is added before the first request.
func (n *faultNet) ingest(target string, f faults) string {
	if n.targets == nil {
		n.targets = map[string]*faultTarget{}
	}
	n.targets[target] = &faultTarget{rates: [numFaults]float64{f.drop, f.err5xx, f.reset, f.truncate},
		rng: rand.New(rand.NewSource(cmp.Or(f.seed, 1)))}
	return target + "/v1/samples"
}

// client is an HTTP client over n with the rounds' 5 s timeout.
func (n *faultNet) client() *http.Client {
	return &http.Client{Timeout: 5 * time.Second, Transport: n}
}

// roll draws once for the fault kinds first and first+1 and answers the
// one that fires, or -1.
func (f *faultTarget) roll(first int) int {
	f.mu.Lock()
	x := f.rng.Float64()
	f.mu.Unlock()
	var sum float64
	for k := first; k < first+2; k++ {
		if sum += f.rates[k]; x < sum {
			f.fired[k].Add(1)
			return k
		}
	}
	return -1
}

func (n *faultNet) RoundTrip(req *http.Request) (*http.Response, error) {
	f := n.targets[req.URL.Scheme+"://"+req.URL.Host]
	if f == nil || req.URL.Path != "/v1/samples" {
		return http.DefaultTransport.RoundTrip(req)
	}
	switch f.roll(faultDrop) {
	case faultDrop:
		req.Body.Close()
		return nil, errFaultDrop
	case fault5xx:
		req.Body.Close()
		rec := httptest.NewRecorder()
		rec.Header().Set("Content-Type", "application/json")
		rec.WriteHeader(http.StatusBadGateway)
		io.WriteString(rec, `{"error":"faulting network: injected 502"}`)
		return rec.Result(), nil
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch f.roll(faultReset) {
	case faultReset:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errFaultReset
	case faultTruncate:
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body[:len(body)/2]), iotest.ErrReader(io.ErrUnexpectedEOF)))
	}
	return resp, nil
}

// checkFired: every fault kind given a rate fired on some target, so the
// round did ship through its faults.
func (n *faultNet) checkFired(t testing.TB) {
	t.Helper()
	for k, name := range faultNames {
		var rate float64
		var fired int64
		for _, f := range n.targets {
			rate, fired = rate+f.rates[k], fired+f.fired[k].Load()
		}
		if rate > 0 && fired == 0 {
			t.Errorf("no %s fault fired", name)
		}
	}
}
