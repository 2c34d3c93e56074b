package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcpower/internal/elect"
)

// electedNode is a durable node over dir as powserved runs a data node
// under -peer — elector attached before recovery, no role set. With no
// peers the group is this node alone, a quorum of one: enough to exercise
// the serve-side wiring without a full group.
func electedNode(dir string, peers ...elect.Peer) testNode {
	return testNode{dir: dir, elect: &elect.Config{ID: "solo", Peers: peers, HeartbeatEvery: 10 * time.Millisecond}}
}

// TestNotPrimaryCarriesLeaderHint: a follower's 503 tells the shipper
// where the primary is, so failover is one hop instead of a scan.
func TestNotPrimaryCarriesLeaderHint(t *testing.T) {
	_, tsP := testNode{dir: t.TempDir()}.start(t)
	_, tsF := testNode{dir: t.TempDir(), follow: tsP.URL}.start(t)

	resp, body := postJSON(t, tsF.URL+"/v1/samples", stampedBatches(1, 1)[0])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower ingest = %d, want 503", resp.StatusCode)
	}
	s := string(body)
	if !strings.Contains(s, `"code":"not_primary"`) || !strings.Contains(s, `"primary":"`+tsP.URL+`"`) {
		t.Fatalf("follower 503 body %s lacks not_primary code or primary hint %q", s, tsP.URL)
	}
}

// TestDeposedPrimaryRejoins: a primary with records the new leader never
// had is told a foreign leader holds a higher epoch. It must re-enter the
// group as that leader's follower through one snapshot install, count
// one rejoin, and end holding exactly the leader's state.
func TestDeposedPrimaryRejoins(t *testing.T) {
	a, tsA := testNode{dir: t.TempDir()}.start(t)
	b, tsB := testNode{dir: t.TempDir()}.start(t)
	// Divergent histories: nothing A holds was ever replicated to B
	// and vice versa.
	waitIngested(t, a, sendAll(t, tsA.URL, stampedBatches(11, 8)))
	waitIngested(t, b, sendAll(t, tsB.URL, stampedBatches(99, 4)))

	// A wins an election at a higher epoch; B learns about it.
	epoch, err := a.PromoteTo(7)
	if err != nil || epoch != 7 {
		t.Fatalf("promote a: epoch %d err %v", epoch, err)
	}
	b.maybeRejoin(7, "a", tsA.URL)
	awaitLeaderImage(t, a, b)

	code, m := readyzJSON(t, tsB.URL)
	if code != http.StatusOK || m["role"] != RoleFollower {
		t.Fatalf("rejoined readyz = %d %v, want a ready follower", code, m)
	}
	if got := m["rejoins"].(float64); got != 1 {
		t.Fatalf("rejoins = %v, want 1", got)
	}
	// Ingest on the rejoined node now redirects to the leader.
	resp, body := postJSON(t, tsB.URL+"/v1/samples", stampedBatches(1, 1)[0])
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), tsA.URL) {
		t.Fatalf("rejoined ingest = %d %s, want 503 with hint to %s", resp.StatusCode, body, tsA.URL)
	}
}

// awaitLeaderImage waits until follower has adopted leader's epoch, which
// it does only after installing the leader's snapshot, and checks that one
// install got it there and that it now holds the leader's state.
func awaitLeaderImage(t *testing.T, leader, follower *Server) {
	t.Helper()
	rs, epoch := follower.dur.repl, leader.dur.repl.epoch.Epoch()
	settled := func() bool {
		return rs.epoch.Epoch() == epoch && rs.followerStats().SnapshotInstalls > 0 &&
			rs.replApplied.Load() == leader.dur.repl.source.Watermark()
	}
	for deadline := time.Now().Add(5 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got, installs := rs.epoch.Epoch(), rs.followerStats().SnapshotInstalls; got != epoch || installs != 1 {
		t.Fatalf("follower at epoch %d after %d snapshot installs (%d samples, the leader %d), want epoch %d after 1",
			got, installs, follower.store.Ingested(), leader.store.Ingested(), epoch)
	}
	checkFollowerMatches(t, leader, follower)
}

// refusingFront proxies to target but refuses its snapshot and stream
// endpoints, so a follower behind it reaches the leader and can never
// install or apply anything from it. It answers the front's URL and a
// count of the refusals.
func refusingFront(t *testing.T, target string) (string, *atomic.Int64) {
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(u)
	refused := new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/repl/snapshot" || r.URL.Path == "/v1/repl/stream" {
			refused.Add(1)
			http.Error(w, "refused by the test's front", http.StatusServiceUnavailable)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, refused
}

// TestCrashMidRejoin: a deposed primary whose rejoin never got the
// leader's snapshot — it follows the leader through a front that refuses
// the snapshot and the stream — still bootstraps from the leader, both
// after a crash and a restart as the leader's follower and after a rejoin
// re-fired at the leader's own URL. Either way it ends holding exactly
// the leader's state, through one snapshot install, with none of its own
// records left on top.
func TestCrashMidRejoin(t *testing.T) {
	for _, crashed := range []bool{true, false} {
		t.Run(fmt.Sprintf("crashed=%v", crashed), func(t *testing.T) {
			a, tsA := testNode{dir: t.TempDir()}.start(t)
			dirB := t.TempDir()
			b, tsB := testNode{dir: dirB, quiet: true}.start(t)
			waitIngested(t, a, sendAll(t, tsA.URL, stampedBatches(11, 8)))
			waitIngested(t, b, sendAll(t, tsB.URL, stampedBatches(99, 4)))
			// B's own records are in its snapshot as well as its WAL.
			if _, _, err := b.dur.snapshotOnce(b); err != nil {
				t.Fatal(err)
			}
			if _, err := a.PromoteTo(7); err != nil {
				t.Fatal(err)
			}

			front, refused := refusingFront(t, tsA.URL)
			if err := b.rejoin(7, "a", front); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "a refused pull", func() bool { return refused.Load() > 0 })
			if crashed {
				crash(t, b, tsB)
				b, _ = testNode{dir: dirB, quiet: true, follow: tsA.URL}.start(t)
			} else if err := b.rejoin(7, "a", tsA.URL); err != nil {
				t.Fatal(err)
			}
			awaitLeaderImage(t, a, b)
			if rejoins := b.dur.repl.rejoins.Load(); !crashed && rejoins != 1 {
				t.Fatalf("rejoins = %d, want 1: a re-fired rejoin is the same demotion", rejoins)
			}
		})
	}
}

// gatedBody is a request body whose first Read announces itself on
// reading and then blocks until resume is closed.
type gatedBody struct {
	io.Reader
	once            sync.Once
	reading, resume chan struct{}
}

func (g *gatedBody) Read(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.reading)
		<-g.resume
	})
	return g.Reader.Read(p)
}

// TestNoAckAcrossDemotion: a batch in flight when its primary is demoted
// is refused with the role gate's 503 not_primary, never acked — whether
// the demotion lands while the handler reads the body, after the gate, or
// while the batch waits in the queue to be applied; with semi-sync acks
// too, which skip the follower wait once the node follows. Either way the
// demoted node then holds exactly the new leader's state.
func TestNoAckAcrossDemotion(t *testing.T) {
	for _, queued := range []bool{false, true} {
		for _, syncAck := range []bool{false, true} {
			t.Run(fmt.Sprintf("queued=%v/sync=%v", queued, syncAck), func(t *testing.T) {
				a, tsA := testNode{dir: t.TempDir()}.start(t)
				b, _ := testNode{dir: t.TempDir(), dur: DurabilityConfig{
					Replication: &ReplicationConfig{SyncAck: syncAck}}}.start(t)
				waitIngested(t, a, sendAll(t, tsA.URL, stampedBatches(11, 4)))
				if _, err := a.PromoteTo(7); err != nil {
					t.Fatal(err)
				}

				payload, err := json.Marshal(stampedBatches(99, 1)[0])
				if err != nil {
					t.Fatal(err)
				}
				body := &gatedBody{Reader: bytes.NewReader(payload), reading: make(chan struct{}), resume: make(chan struct{})}
				req := httptest.NewRequest(http.MethodPost, "/v1/samples", body)
				req.ContentLength = int64(len(payload))
				rec := httptest.NewRecorder()
				logged := b.dur.log.LastLSN()
				resume := sync.OnceFunc(func() { close(body.resume) })
				t.Cleanup(resume)
				release := func() {}
				if queued {
					release = sync.OnceFunc(parkWorker(t, b))
					t.Cleanup(release)
					resume()
				}
				served := make(chan struct{})
				go func() {
					defer close(served)
					b.Handler().ServeHTTP(rec, req)
				}()
				<-body.reading
				if queued {
					waitFor(t, "the batch to be queued", func() bool { return b.ingestQ.Len() == 1 })
				}
				served0 := a.dur.snapshots.Load()
				if err := b.rejoin(7, "a", tsA.URL); err != nil {
					t.Fatal(err)
				}
				if queued {
					// The leader's image arrives while the batch is queued: the
					// install must wait for it, so nothing is adopted yet.
					waitFor(t, "the leader's snapshot", func() bool { return a.dur.snapshots.Load() > served0 })
					time.Sleep(50 * time.Millisecond)
					if got := b.dur.repl.epoch.Epoch(); got == 7 {
						t.Fatal("the leader's image was installed over a queued batch")
					}
				}
				release()
				resume()
				<-served
				if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), CodeNotPrimary) {
					t.Fatalf("in-flight batch across a demotion = %d %s, want 503 %s", rec.Code, rec.Body, CodeNotPrimary)
				}
				if !queued && b.dur.log.LastLSN() != logged {
					t.Fatalf("a batch refused before its stamp was logged: last lsn %d, was %d", b.dur.log.LastLSN(), logged)
				}
				awaitLeaderImage(t, a, b)
			})
		}
	}
}

// TestPromoteDuringSnapshotBootstrap: promoting a follower while its
// snapshot bootstrap is in flight must not deadlock, corrupt state, or
// resurrect the pull loop — whichever side wins, the node ends up a
// working primary.
func TestPromoteDuringSnapshotBootstrap(t *testing.T) {
	p, tsP := testNode{dir: t.TempDir(), dur: DurabilityConfig{SegmentBytes: 256}}.start(t)
	total := sendAll(t, tsP.URL, stampedBatches(13, 40))
	waitIngested(t, p, total)
	// Reap the early WAL so the follower is forced through the
	// snapshot-bootstrap path, not a plain stream from LSN 1.
	if _, _, err := p.dur.snapshotOnce(p); err != nil {
		t.Fatal(err)
	}

	f, tsF := testNode{dir: t.TempDir(), follow: tsP.URL}.start(t)
	// Race the promotion against the bootstrap: no sleep, fire
	// immediately after the pull loop starts.
	epoch, err := f.Promote()
	if err != nil {
		t.Fatalf("promote during bootstrap: %v", err)
	}
	if epoch == 0 {
		t.Fatal("promotion did not advance the epoch")
	}

	// The node must now behave as a primary: accept writes at the new
	// epoch and never flip back to follower.
	b := stampedBatches(77, 1)[0]
	resp, body := postJSON(t, tsF.URL+"/v1/samples", b, HeaderReplEpoch, fmtUint(epoch))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-promotion ingest = %d %s", resp.StatusCode, body)
	}
	time.Sleep(50 * time.Millisecond) // let any straggler pull-loop iteration run
	code, m := readyzJSON(t, tsF.URL)
	if code != http.StatusOK || m["role"] != RolePrimary {
		t.Fatalf("post-promotion readyz = %d %v, want ready primary", code, m)
	}
}

// TestReadyzElectionShape: with an elector attached, /readyz exposes
// the election block — role, leader, epoch, lease, witness health, and
// the last transition — plus the rejoin counters.
func TestReadyzElectionShape(t *testing.T) {
	s, ts := electedNode(t.TempDir()).start(t)
	el := s.elector.Load()

	// A fresh node boots a follower; alone it wins the first election
	// and holds the lease after one round.
	waitFor(t, "the solo leader's lease", el.HasLease)

	code, m := readyzJSON(t, ts.URL)
	if code != http.StatusOK {
		t.Fatalf("readyz = %d %v", code, m)
	}
	elb, ok := m["election"].(map[string]any)
	if !ok {
		t.Fatalf("readyz lacks election block: %v", m)
	}
	for _, k := range []string{"role", "leader_id", "leader_url", "epoch", "has_lease", "lease_remaining_ms", "witness_ok", "last_transition"} {
		if _, ok := elb[k]; !ok {
			t.Fatalf("election block lacks %q: %v", k, elb)
		}
	}
	if elb["role"] != "leader" || elb["leader_id"] != "solo" || elb["has_lease"] != true {
		t.Fatalf("election block = %v, want leading solo with lease", elb)
	}
	if _, ok := m["rejoins"]; !ok {
		t.Fatalf("readyz lacks %q: %v", "rejoins", m)
	}

	// The lease gate: while the lease is held ingest flows; a leader
	// whose elector reports no lease refuses with the no_lease code.
	b := stampedBatches(5, 1)[0]
	if resp, body := postJSON(t, ts.URL+"/v1/samples", b); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("leased ingest = %d %s", resp.StatusCode, body)
	}
}

// deadPeers are group members nobody answers for, so that a node among
// them can never assemble a quorum and keeps the boot state it took.
func deadPeers(t *testing.T) []elect.Peer {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	return []elect.Peer{{ID: "x", URL: dead.URL}, {ID: "w", URL: dead.URL, Witness: true}}
}

// TestParentEpochRecordBootsFollower: a data dir whose EPOCH holds the
// one-field record of the previous format still opens. The record does
// not say the node led its epoch, so under an elector it boots a
// follower advertising its replication cursor — for a node that only
// ever led, 0, never its own LSNs under an epoch another node might
// hold — and campaigns with that. Without an elector the static role
// flags decide, as before.
func TestParentEpochRecordBootsFollower(t *testing.T) {
	dirP, dirF := t.TempDir(), t.TempDir()
	p, tsP := testNode{dir: dirP}.start(t)
	f, _ := testNode{dir: dirF, follow: tsP.URL}.start(t)
	total := sendAll(t, tsP.URL, stampedBatches(31, 6))
	waitIngested(t, f, total)
	applied := f.dur.repl.replApplied.Load()
	if applied == 0 {
		t.Fatal("the follower applied nothing")
	}
	f.Close()
	p.Close()
	for _, dir := range []string{dirP, dirF} {
		if err := os.WriteFile(filepath.Join(dir, epochFileName), []byte("1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		dir      string
		frontier uint64
	}{{dirP, 0}, {dirF, applied}} {
		s, ts := electedNode(tc.dir, deadPeers(t)...).start(t)
		el := s.elector.Load()
		if st := el.Status(); !s.dur.repl.isFollower.Load() || st.Role != "follower" {
			t.Fatalf("%s booted follower %v, elector %+v; want a follower", tc.dir, s.dur.repl.isFollower.Load(), st)
		}
		if st := el.Status(); st.FrontierEpoch != 1 || st.FrontierLSN != tc.frontier {
			t.Errorf("%s advertises %d/%d, want 1/%d", tc.dir, st.FrontierEpoch, st.FrontierLSN, tc.frontier)
		}
		if resp, body := postJSON(t, ts.URL+"/v1/samples", stampedBatches(32, 1)[0]); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), CodeNotPrimary) {
			t.Errorf("%s ingest = %d %s, want 503 %s", tc.dir, resp.StatusCode, body, CodeNotPrimary)
		}
		el.Close()
		s.Close()
	}

	_, ts := testNode{dir: dirP}.start(t)
	if code, m := readyzJSON(t, ts.URL); code != http.StatusOK || m["role"] != RolePrimary || m["epoch"] != float64(1) {
		t.Fatalf("static reopen readyz = %d %v, want the primary at epoch 1", code, m)
	}
}

// TestReplStreamNeedsLease: under an elector a primary serves its stream
// and its bootstrap snapshot only while it holds the lease for its own
// epoch. A node that led its epoch boots leading it, but until a quorum
// round confirms that no successor exists it refuses with no_lease;
// once it holds the lease it serves.
func TestReplStreamNeedsLease(t *testing.T) {
	dir := t.TempDir()
	p, ts := testNode{dir: dir}.start(t)
	sendAll(t, ts.URL, stampedBatches(41, 3))
	p.Close()

	for _, lease := range []bool{false, true} {
		var peers []elect.Peer
		if !lease {
			peers = deadPeers(t)
		}
		s, ts := electedNode(dir, peers...).start(t)
		el := s.elector.Load()
		if st := el.Status(); s.dur.repl.isFollower.Load() || st.Role != "leader" {
			t.Fatalf("the leader of epoch 1 booted follower %v, elector %+v", s.dur.repl.isFollower.Load(), st)
		}
		if lease {
			waitFor(t, "the lease", el.HasLease)
		}
		for _, path := range []string{"/v1/repl/stream?follower=x&from=1", "/v1/repl/snapshot?follower=x"} {
			ctx, cancel := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := make([]byte, 512)
			n, _ := resp.Body.Read(body)
			cancel()
			resp.Body.Close()
			switch {
			case lease && resp.StatusCode != http.StatusOK:
				t.Errorf("with the lease, %s = %d %s", path, resp.StatusCode, body[:n])
			case !lease && (resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body[:n]), CodeNoLease)):
				t.Errorf("without the lease, %s = %d %s, want 503 %s", path, resp.StatusCode, body[:n], CodeNoLease)
			}
		}
		el.Close()
		s.Close()
	}
}
