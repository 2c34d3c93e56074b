package serve

// The failover harness: two durable data nodes and a witness elect a
// leader in-process, one shipper delivers seeded batches to both nodes
// over a seeded faulting network, and a seeded schedule of rounds
// kills, partitions and flaps the nodes under that load. Every round
// ends at a settled point where the invariants are checked, and the
// run ends with the analytics of both nodes compared byte for byte with
// a control that saw no fault. One subtest per seed:
//
//	go test -run 'TestFailoverRounds/seed=3' ./internal/serve/

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcpower/internal/elect"
	"hpcpower/internal/obs"
	"hpcpower/internal/rng"
	"hpcpower/internal/ship"
	"hpcpower/internal/trace"
	"hpcpower/internal/vfs"
)

// failoverSeeds are the schedules the harness runs; a failing seed is
// replayed alone with -run 'TestFailoverRounds/seed=N'. Every seed lost
// an acked batch in its kill-both round while a duplicate was acked
// before its original reached the follower (awaitDuplicate), and seeds
// 1, 3 and 4 double-counted on a follower that resumed its stream on a
// leader elected since, over a history it had led itself (the repl
// follower bootstraps from a newer epoch). Seed 2 deadlocked its
// election when each node's role came from its first flags rather
// than its epoch record: the node that led last came back a follower.
var failoverSeeds = []uint64{1, 2, 3, 4}

const (
	foHeartbeat = 50 * time.Millisecond  // election tick; a lease lasts four
	foPhase     = 16                     // batches fed in each phase of a round
	foPace      = 2 * time.Millisecond   // between two fed batches
	foSettle    = 20 * time.Second       // the most a round may take to settle
	foSyncAck   = 250 * time.Millisecond // a primary's wait for its follower's ack
)

// The fault kinds a schedule is drawn from; every schedule holds each
// of them once.
const (
	killPrimary = "kill-primary" // SIGKILL the leader, restart it
	killStandby = "kill-standby" // SIGKILL the standby, restart it
	partition   = "partition"    // cut the leader off in both directions
	egressCut   = "egress-cut"   // the leader hears its peers but cannot reach them
	flapLink    = "flap"         // the leader's egress comes and goes faster than a lease
	operator    = "operator"     // SIGKILL the leader, POST /v1/promote, restart it fenced
	killBoth    = "kill-both"    // SIGKILL the standby, then the leader; the seed picks who comes back first
)

var faultKinds = []string{killPrimary, killStandby, partition, egressCut, flapLink, operator, killBoth}

// front is a node's stable address: the process behind it can die and be
// restarted, or be cut off, and its peers keep dialling the same URL.
type front struct {
	ts  *httptest.Server
	h   atomic.Pointer[http.Handler] // nil while the process is dead
	cut atomic.Bool
}

func newFront() *front {
	f := &front{}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := f.h.Load()
		if h == nil || f.cut.Load() {
			panic(http.ErrAbortHandler) // a dead or unreachable peer
		}
		(*h).ServeHTTP(w, r)
	}))
	return f
}

// cutTransport carries a node's election RPCs unless its egress is cut.
type cutTransport struct {
	cut  *atomic.Bool
	http elect.HTTPTransport
}

var errLinkCut = errors.New("link cut")

func (t *cutTransport) Heartbeat(ctx context.Context, url string, req elect.HeartbeatRequest) (elect.HeartbeatResponse, error) {
	if t.cut.Load() {
		return elect.HeartbeatResponse{}, errLinkCut
	}
	return t.http.Heartbeat(ctx, url, req)
}

func (t *cutTransport) RequestVote(ctx context.Context, url string, req elect.VoteRequest) (elect.VoteResponse, error) {
	if t.cut.Load() {
		return elect.VoteResponse{}, errLinkCut
	}
	return t.http.RequestVote(ctx, url, req)
}

// foNode is one data node: its data dir and configuration outlive the
// processes (Servers) that run over them. Every process of either node
// starts with the same configuration; the election and each node's
// epoch record decide who leads.
type foNode struct {
	id     string
	dir    string
	front  *front
	egress atomic.Bool
	srv    atomic.Pointer[Server] // nil while dead
	log    lockedBuffer           // its processes' log lines, which describe prints
}

func (n *foNode) rejoins() int64 { return n.srv.Load().dur.repl.rejoins.Load() }

type foCluster struct {
	t       *testing.T
	seed    uint64
	ctx     context.Context
	nodes   [2]*foNode
	witness *httptest.Server

	net     faultNet
	sh      *ship.Shipper
	kick    chan struct{}
	batches []trace.SampleBatch // the whole run's load, in shipping order
	fed     int                 // batches enqueued so far
	samples int64               // samples in them

	wg     sync.WaitGroup // the flusher and the winner sampler
	leases leaseLog       // every epoch seen led, and by whom
}

func newFailoverCluster(t *testing.T, seed uint64) *foCluster {
	ctx, cancel := context.WithCancel(context.Background())
	c := &foCluster{t: t, seed: seed, ctx: ctx, kick: make(chan struct{}, 1)}

	wst, err := elect.OpenStateFile(vfs.OS, filepath.Join(t.TempDir(), "ELECT"))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"a", "b"} {
		c.nodes[i] = &foNode{id: id, dir: t.TempDir(), front: newFront()}
		t.Cleanup(c.nodes[i].front.ts.Close)
	}
	a, b := c.nodes[0], c.nodes[1]
	w, err := elect.New(elect.Config{ID: "w", Witness: true, State: wst, Transport: &elect.HTTPTransport{},
		Peers: []elect.Peer{{ID: a.id, URL: a.front.ts.URL}, {ID: b.id, URL: b.front.ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	c.witness = httptest.NewServer(elect.Handler(w))
	t.Cleanup(c.witness.Close)
	c.start(a, false)
	c.start(b, false)

	// The shipper reaches each node over a network that fails ≥ 10 % of
	// the ingest requests: dropped, answered 502, reset after the node
	// answered, or truncated.
	var urls []string
	for i, n := range c.nodes {
		urls = append(urls, c.net.ingest(n.front.ts.URL, faults{drop: 0.04, err5xx: 0.03, reset: 0.03, truncate: 0.02,
			seed: int64(seed)*10 + int64(i) + 1}))
	}
	c.sh = ship.New(ship.Config{URLs: urls, AgentID: "fo", Client: c.net.client(),
		BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 50 * time.Millisecond, FailbackEvery: 200 * time.Millisecond,
		MaxPending: 1 << 16, Seed: int64(seed)})
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-c.kick:
			}
			if c.sh.Flush(ctx) != nil {
				return
			}
		}
	}()
	go c.sampleWinners()
	t.Cleanup(func() { cancel(); c.wg.Wait() })

	src := rng.New(seed)
	c.batches = make([]trace.SampleBatch, 4*foPhase*len(faultKinds))
	for i := range c.batches {
		samples := make([]trace.PowerSample, 4+src.Uint64()%12)
		for j := range samples {
			node := int(src.Uint64() % 16)
			samples[j] = trace.PowerSample{Node: node, JobID: 1 + uint64(node/4),
				Unix: 1_700_000_000 + int64(60*i) + int64(src.Uint64()%60), PowerW: 100 + 300*src.Float64()}
		}
		c.batches[i] = trace.SampleBatch{AgentID: "fo", Samples: samples}
	}
	return c
}

// start runs a process over n's data dir behind n's front, as powserved
// runs a data node under -peer: the same flags every time, the role from
// its epoch record. isolated starts it partitioned off.
func (c *foCluster) start(n *foNode, isolated bool) {
	c.t.Helper()
	st, err := elect.OpenStateFile(vfs.OS, filepath.Join(n.dir, "ELECT"))
	if err != nil {
		c.t.Fatal(err)
	}
	other := c.other(n)
	n.cut(isolated, isolated)
	s, _ := testNode{dir: n.dir, cfg: Config{Logger: obs.NewLogger(obs.LogConfig{Output: &n.log})},
		dur: DurabilityConfig{Replication: &ReplicationConfig{FollowerID: n.id,
			SyncAck: true, SyncAckTimeout: foSyncAck, AckEvery: time.Millisecond,
			HeartbeatEvery: 25 * time.Millisecond, StallTimeout: time.Second}},
		elect: &elect.Config{ID: n.id, URL: n.front.ts.URL,
			Peers:          []elect.Peer{{ID: other.id, URL: other.front.ts.URL}, {ID: "w", URL: c.witness.URL, Witness: true}},
			HeartbeatEvery: foHeartbeat, State: st, Transport: &cutTransport{cut: &n.egress}},
	}.start(c.t)
	var h http.Handler = s.Handler()
	n.front.h.Store(&h)
	n.srv.Store(s)
}

// kill is a SIGKILL of n's process: connections drop, disk stays as is.
func (c *foCluster) kill(n *foNode) {
	c.t.Helper()
	s := n.srv.Swap(nil)
	n.front.h.Store(nil)
	n.front.ts.CloseClientConnections()
	crash(c.t, s, nil)
}

// cut partitions n's ingress (every request to its front) and its
// egress (the election RPCs it sends) on or off.
func (n *foNode) cut(ingress, egress bool) {
	n.egress.Store(egress)
	n.front.cut.Store(ingress)
	if ingress {
		n.front.ts.CloseClientConnections()
	}
}

// sampleWinners records, until the run ends, which node leads at which
// epoch.
func (c *foCluster) sampleWinners() {
	defer c.wg.Done()
	for c.ctx.Err() == nil {
		for _, n := range c.nodes {
			if s := n.srv.Load(); s != nil {
				if st := s.elector.Load().Status(); st.Role == "leader" {
					c.leases.saw(st.Epoch, n.id)
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// feed enqueues the next n batches at the shipper's pace.
func (c *foCluster) feed(n int) {
	for ; n > 0; n-- {
		b := &c.batches[c.fed]
		c.fed++
		c.samples += int64(len(b.Samples))
		b.Seq = c.sh.Enqueue(b.Samples)
		select {
		case c.kick <- struct{}{}:
		default:
		}
		time.Sleep(foPace)
	}
}

func (c *foCluster) await(what string, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(foSettle)
	for !cond() {
		if time.Now().After(deadline) {
			c.t.Fatalf("timed out waiting for %s\n%s", what, c.describe())
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *foCluster) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shipper: %+v (fed %d batches, %d samples)\n", c.sh.Stats(), c.fed, c.samples)
	for _, n := range c.nodes {
		s := n.srv.Load()
		if s == nil {
			fmt.Fprintf(&b, "%s: dead\n", n.id)
			continue
		}
		rs := s.dur.repl
		fmt.Fprintf(&b, "%s: role %s epoch %d fenced %v upstream %q ingested %d lag %d rejoins %d cut %v/%v election %+v\n",
			n.id, rs.role(), rs.epoch.Epoch(), rs.fenced.Load(), rs.currentUpstream(), s.store.Ingested(),
			rs.lagRecords(), rs.rejoins.Load(), n.front.cut.Load(), n.egress.Load(), s.elector.Load().Status())
	}
	for _, n := range c.nodes {
		fmt.Fprintf(&b, "%s's log:\n%s", n.id, n.log.String())
	}
	return b.String()
}

// leaseHolders are the live nodes whose elector holds the lease.
func (c *foCluster) leaseHolders() []*foNode {
	var out []*foNode
	for _, n := range c.nodes {
		if s := n.srv.Load(); s != nil && s.elector.Load().HasLease() {
			out = append(out, n)
		}
	}
	return out
}

func (c *foCluster) other(n *foNode) *foNode {
	if n == c.nodes[0] {
		return c.nodes[1]
	}
	return c.nodes[0]
}

// settle waits out a round and checks the invariants at the point it
// reaches: one lease-holder that took every batch shipped so far exactly
// once, and the other node following it with no replication lag and the
// same state.
func (c *foCluster) settle() *foNode {
	c.t.Helper()
	var leader *foNode
	c.await("a single leader", func() bool {
		hs := c.leaseHolders()
		if len(hs) == 1 {
			leader = hs[0]
		}
		return len(hs) == 1
	})
	c.await("the shipper to drain", func() bool { return c.sh.Stats().ShippedBatches == int64(c.fed) })
	standby := c.other(leader)
	ls, ss := leader.srv.Load(), standby.srv.Load()
	c.await("the standby to catch up", func() bool {
		rs, src := ss.dur.repl, ls.dur.repl.source
		acked, n := src.MinAcked()
		wm := src.Watermark()
		return rs.isFollower.Load() && rs.currentUpstream() == leader.front.ts.URL && n > 0 &&
			acked == wm && rs.replApplied.Load() == wm && rs.lagRecords() == 0 &&
			ss.store.Ingested() == ls.store.Ingested()
	})
	// A slow fsync behind a heartbeat can lapse the lease for a moment;
	// two holders is the violation.
	var holders []string
	for _, n := range c.leaseHolders() {
		holders = append(holders, n.id)
	}
	checkOneLeaseHolder(c.t, holders, &c.leases)
	checkAckedOnce(c.t, ls, c.batches[:c.fed], c.fed)
	checkFollowerMatches(c.t, ls, ss)
	checkShipped(c.t, "the shipper", c.sh.Stats(), c.fed)
	if c.t.Failed() {
		c.t.Fatalf("at the settled point led by %s\n%s", leader.id, c.describe())
	}
	return leader
}

// promote is the operator's POST /v1/promote; it answers the new epoch.
func (c *foCluster) promote(n *foNode) uint64 {
	c.t.Helper()
	resp, body := postJSON(c.t, n.front.ts.URL+"/v1/promote", nil)
	var pr struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &pr); resp.StatusCode != http.StatusOK || err != nil || pr.Role != RolePrimary {
		c.t.Fatalf("promote %s: %d %s", n.id, resp.StatusCode, body)
	}
	return pr.Epoch
}

// checkFenced posts straight to n's process (its front is cut): a write
// carrying the newer epoch is refused 409 stale_epoch, and so is the
// next one without it.
func (c *foCluster) checkFenced(n *foNode, epoch uint64) {
	c.t.Helper()
	h := n.srv.Load().Handler()
	const body = `{"agent":"probe","seq":1,"samples":[{"node":1,"job":1,"t":1700000000,"w":100}]}`
	for i, hdr := range []string{strconv.FormatUint(epoch, 10), ""} {
		req := httptest.NewRequest(http.MethodPost, "/v1/samples", strings.NewReader(body))
		if hdr != "" {
			req.Header.Set(HeaderReplEpoch, hdr)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), CodeStaleEpoch) ||
			rec.Header().Get(HeaderReplFenced) != "1" {
			c.t.Fatalf("restarted %s, write %d: %d %s %v, want a sticky 409 %s", n.id, i+1, rec.Code, rec.Body, rec.Header(), CodeStaleEpoch)
		}
	}
}

// round runs one fault against the settled leader under load and
// returns the leader of the settled point after it.
func (c *foCluster) round(kind string, leader *foNode) *foNode {
	c.t.Helper()
	standby := c.other(leader)
	rejoins := leader.rejoins()
	c.feed(foPhase)
	switch kind {
	case killPrimary:
		c.kill(leader)
		c.feed(foPhase)
		c.await("the standby's lease", standby.srv.Load().elector.Load().HasLease)
		c.start(leader, false)
	case killStandby:
		c.kill(standby)
		c.feed(foPhase)
		c.start(standby, false)
	case partition, egressCut:
		leader.cut(kind == partition, true)
		c.feed(foPhase)
		c.await("the standby's lease", standby.srv.Load().elector.Load().HasLease)
		leader.cut(false, false)
	case flapLink:
		flapped := make(chan struct{})
		go func() {
			defer close(flapped)
			for i := 0; i < 8; i++ {
				time.Sleep(3 * foHeartbeat)
				leader.egress.Store(i%2 == 0)
			}
		}()
		c.feed(foPhase)
		<-flapped
	case killBoth:
		c.kill(standby)
		c.feed(foPhase)
		time.Sleep(2 * foSyncAck) // the leader serves alone; nothing it acks may be lost
		c.kill(leader)
		// Both come back with the flags they first started with, each
		// taking its role from its epoch record, and the seed picks who
		// comes back first. The standby may lead alone only if it holds
		// every acked batch; if the leader acked some with no follower
		// registered, the witness keeps the lease for the leader's return.
		first, second := standby, leader
		if c.seed%2 == 0 {
			first, second = leader, standby
		}
		c.start(first, false)
		time.Sleep(8 * foHeartbeat)
		c.start(second, false)
	case operator:
		c.kill(leader)
		epoch := c.promote(standby)
		c.feed(foPhase)
		c.start(leader, true)
		c.checkFenced(leader, epoch)
		rejoins = 0 // a new process
		leader.cut(false, false)
	}
	c.feed(foPhase)
	next := c.settle()
	switch {
	case kind == killBoth:
	case kind == killStandby || kind == flapLink && next == leader:
		if next != leader {
			c.t.Fatalf("%s moved the lease from %s to %s", kind, leader.id, next.id)
		}
	case next != standby:
		c.t.Fatalf("%s: %s still leads", kind, leader.id)
	case kind != killPrimary && leader.rejoins() != rejoins+1:
		// A deposed leader that stayed alive (or was restarted as a
		// primary) rejoins its successor exactly once.
		c.t.Fatalf("%s: deposed %s rejoined %d times, want 1\n%s", kind, leader.id, leader.rejoins()-rejoins, c.describe())
	}
	return next
}

// TestFailoverRounds drives each seed's schedule — every fault kind
// once, in a seeded order — and then compares both nodes' analytics
// with a control that took the same batches without a fault.
func TestFailoverRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("failover rounds take seconds")
	}
	for _, seed := range failoverSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newFailoverCluster(t, seed)
			schedule := append([]string(nil), faultKinds...)
			src := rng.New(seed)
			for i := len(schedule) - 1; i > 0; i-- {
				j := int(src.Uint64() % uint64(i+1))
				schedule[i], schedule[j] = schedule[j], schedule[i]
			}
			leader := c.settle()
			for i, kind := range schedule {
				start := time.Now()
				leader = c.round(kind, leader)
				t.Logf("round %d: %s settled in %v, %s leads", i+1, kind, time.Since(start).Round(time.Millisecond), leader.id)
			}
			c.feed(len(c.batches) - c.fed)
			leader = c.settle()
			if st := c.sh.Stats(); st.Retries == 0 || st.Failovers == 0 {
				t.Fatalf("the faults did not bite: %+v", st)
			}
			c.net.checkFired(t)

			control := controlAnalytics(t, testNode{dir: t.TempDir()}, c.batches)
			for _, n := range c.nodes {
				checkSameAsControl(t, n.id, analyticsOf(t, n.srv.Load(), n.front.ts.URL), control)
			}
			if t.Failed() {
				t.Fatal(c.describe())
			}
			_, metrics := get(t, leader.front.ts.URL+"/metrics")
			for _, m := range []string{"powserved_repl_epoch ", "powserved_repl_rejoins_total ", "powserved_repl_lag_records 0"} {
				if !bytes.Contains(metrics, []byte(m)) {
					t.Fatalf("leader /metrics lacks %q", m)
				}
			}
		})
	}
}
