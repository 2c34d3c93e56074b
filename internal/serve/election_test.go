package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hpcpower/internal/elect"
	"hpcpower/internal/vfs"
)

// newElectedServer builds a durable server over dir as powserved runs a
// data node under -peer — elector attached before recovery, no role set
// — and serves it. With no peers the group is this node alone, a quorum
// of one: enough to exercise the serve-side wiring without a full group.
func newElectedServer(t testing.TB, dir string, peers ...elect.Peer) (*Server, *httptest.Server, *elect.Elector) {
	t.Helper()
	s, err := NewDurable(durableStore(), nil, durableConfig(), DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	st, err := elect.OpenStateFile(vfs.OS, filepath.Join(t.TempDir(), "elect-state"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	el, err := s.StartElection(ctx, elect.Config{
		ID:             "solo",
		URL:            ts.URL,
		Peers:          peers,
		HeartbeatEvery: 10 * time.Millisecond,
		State:          st,
		Transport:      &elect.HTTPTransport{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cancel(); el.Close(); ts.Close(); s.Close() })
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	return s, ts, el
}

// TestFrontierEndpoint: a primary reports its identity, epoch, role,
// and the upstream watermark frozen at promotion time.
func TestFrontierEndpoint(t *testing.T) {
	p, tsP := newDurableServer(t, t.TempDir(), DurabilityConfig{})
	defer func() { tsP.Close(); p.Close() }()
	sendAll(t, tsP.URL, stampedBatches(3, 5))

	resp, body := get(t, tsP.URL+"/v1/repl/frontier")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frontier = %d %s", resp.StatusCode, body)
	}
	s := string(body)
	for _, want := range []string{`"role":"primary"`, `"epoch":`, `"upstream_lsn":0`, `"local_lsn":`} {
		if !strings.Contains(s, want) {
			t.Fatalf("frontier body %s lacks %s", s, want)
		}
	}

	// A follower answers too (the rejoin path validates the role and
	// refuses), and its upstream watermark is meaningless-but-present.
	f, tsF := newFollowerServer(t, t.TempDir(), tsP.URL, DurabilityConfig{})
	defer func() { tsF.Close(); f.Close() }()
	resp, body = get(t, tsF.URL+"/v1/repl/frontier")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"role":"follower"`) {
		t.Fatalf("follower frontier = %d %s", resp.StatusCode, body)
	}
}

// TestNotPrimaryCarriesLeaderHint: a follower's 503 tells the shipper
// where the primary is, so failover is one hop instead of a scan.
func TestNotPrimaryCarriesLeaderHint(t *testing.T) {
	p, tsP := newDurableServer(t, t.TempDir(), DurabilityConfig{})
	defer func() { tsP.Close(); p.Close() }()
	f, tsF := newFollowerServer(t, t.TempDir(), tsP.URL, DurabilityConfig{})
	defer func() { tsF.Close(); f.Close() }()

	resp, body := postJSON(t, tsF.URL+"/v1/samples", stampedBatches(1, 1)[0])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower ingest = %d, want 503", resp.StatusCode)
	}
	s := string(body)
	if !strings.Contains(s, `"code":"not_primary"`) || !strings.Contains(s, `"primary":"`+tsP.URL+`"`) {
		t.Fatalf("follower 503 body %s lacks not_primary code or primary hint %q", s, tsP.URL)
	}
}

// TestDeposedPrimaryRejoins: a primary with diverged, never-replicated
// records is told a foreign leader holds a higher epoch. It must
// truncate its diverged WAL suffix, count the rollback, re-enter the
// group as a follower of that leader, and converge to byte-identical
// analytics.
func TestDeposedPrimaryRejoins(t *testing.T) {
	a, tsA := newDurableServer(t, t.TempDir(), DurabilityConfig{})
	defer func() { tsA.Close(); a.Close() }()
	b, tsB := newDurableServer(t, t.TempDir(), DurabilityConfig{})
	defer func() { tsB.Close(); b.Close() }()

	// Divergent histories: nothing A holds was ever replicated to B
	// and vice versa.
	totalA := sendAll(t, tsA.URL, stampedBatches(11, 8))
	waitIngested(t, a, totalA)
	diverged := sendAll(t, tsB.URL, stampedBatches(99, 4))
	waitIngested(t, b, diverged)

	// A wins an election at a higher epoch; B learns about it.
	epoch, err := a.PromoteTo(7)
	if err != nil || epoch != 7 {
		t.Fatalf("promote a: epoch %d err %v", epoch, err)
	}
	b.maybeRejoin(7, "a", tsA.URL)

	// B must demote, follow A, and converge to A's analytics.
	deadline := time.Now().Add(10 * time.Second)
	for b.store.Ingested() != totalA && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got, want := analyticsDump(t, tsB.URL), analyticsDump(t, tsA.URL); got != want {
		t.Fatal("rejoined node's analytics differ from new leader")
	}

	code, m := readyzJSON(t, tsB.URL)
	if code != http.StatusOK {
		t.Fatalf("rejoined readyz = %d %v", code, m)
	}
	if m["role"] != RoleFollower {
		t.Fatalf("rejoined role = %v, want follower", m["role"])
	}
	if got := m["epoch"].(float64); got != 7 {
		t.Fatalf("rejoined epoch = %v, want 7", got)
	}
	if got := m["rejoins"].(float64); got != 1 {
		t.Fatalf("rejoins = %v, want 1", got)
	}
	// Every one of B's pre-deposal records was past the shared
	// frontier: all of them count as diverged.
	rs := b.dur.repl
	if got := rs.divergedRecords.Load(); got == 0 {
		t.Fatalf("diverged records = %d, want > 0 (all of B's own writes were rolled back)", got)
	}
	// Ingest on the rejoined node now redirects to the leader.
	resp, body := postJSON(t, tsB.URL+"/v1/samples", stampedBatches(1, 1)[0])
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), tsA.URL) {
		t.Fatalf("rejoined ingest = %d %s, want 503 with hint to %s", resp.StatusCode, body, tsA.URL)
	}
}

// TestPromoteDuringSnapshotBootstrap: promoting a follower while its
// snapshot bootstrap is in flight must not deadlock, corrupt state, or
// resurrect the pull loop — whichever side wins, the node ends up a
// working primary.
func TestPromoteDuringSnapshotBootstrap(t *testing.T) {
	p, tsP := newDurableServer(t, t.TempDir(), DurabilityConfig{SegmentBytes: 256})
	defer func() { tsP.Close(); p.Close() }()
	total := sendAll(t, tsP.URL, stampedBatches(13, 40))
	waitIngested(t, p, total)
	// Reap the early WAL so the follower is forced through the
	// snapshot-bootstrap path, not a plain stream from LSN 1.
	if _, _, err := p.dur.snapshotOnce(p); err != nil {
		t.Fatal(err)
	}

	f, tsF := newFollowerServer(t, t.TempDir(), tsP.URL, DurabilityConfig{})
	defer func() { tsF.Close(); f.Close() }()
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
	resp, body := postJSONEpoch(t, tsF.URL+"/v1/samples", epoch, b)
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
	_, ts, el := newElectedServer(t, t.TempDir())

	// A fresh node boots a follower; alone it wins the first election
	// and holds the lease after one round.
	deadline := time.Now().Add(5 * time.Second)
	for !el.HasLease() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !el.HasLease() {
		t.Fatal("solo leader never acquired its lease")
	}

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
	for _, k := range []string{"rejoins", "diverged_records"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("readyz lacks %q: %v", k, m)
		}
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
	p, tsP := newDurableServer(t, dirP, DurabilityConfig{})
	f, tsF := newFollowerServer(t, dirF, tsP.URL, DurabilityConfig{})
	total := sendAll(t, tsP.URL, stampedBatches(31, 6))
	waitIngested(t, f, total)
	applied := f.dur.repl.replApplied.Load()
	if applied == 0 {
		t.Fatal("the follower applied nothing")
	}
	tsF.Close()
	f.Close()
	tsP.Close()
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
		s, ts, el := newElectedServer(t, tc.dir, deadPeers(t)...)
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
		ts.Close()
		s.Close()
	}

	s, ts := newDurableServer(t, dirP, DurabilityConfig{})
	defer func() { ts.Close(); s.Close() }()
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
	p, ts := newDurableServer(t, dir, DurabilityConfig{})
	sendAll(t, ts.URL, stampedBatches(41, 3))
	ts.Close()
	p.Close()

	for _, lease := range []bool{false, true} {
		var peers []elect.Peer
		if !lease {
			peers = deadPeers(t)
		}
		s, ts, el := newElectedServer(t, dir, peers...)
		if st := el.Status(); s.dur.repl.isFollower.Load() || st.Role != "leader" {
			t.Fatalf("the leader of epoch 1 booted follower %v, elector %+v", s.dur.repl.isFollower.Load(), st)
		}
		deadline := time.Now().Add(5 * time.Second)
		for lease && !el.HasLease() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
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
		ts.Close()
		s.Close()
	}
}
