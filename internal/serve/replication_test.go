package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"hpcpower/internal/elect"
)

func readyzJSON(t testing.TB, url string) (int, map[string]any) {
	t.Helper()
	resp, body := get(t, url+"/readyz")
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("readyz body %q is not JSON: %v", body, err)
	}
	return resp.StatusCode, m
}

// TestReplicationEndToEnd: a follower streams a live primary's WAL into
// its own durable pipeline, serves byte-identical analytics read-only,
// survives its own crash, and resumes exactly where it stopped.
func TestReplicationEndToEnd(t *testing.T) {
	primary, tsP := testNode{dir: t.TempDir()}.start(t)

	dirF := t.TempDir()
	follower, tsF := testNode{dir: dirF, follow: tsP.URL}.start(t)

	batches := stampedBatches(21, 50)
	total := sendAll(t, tsP.URL, batches[:40])
	waitIngested(t, primary, total)
	waitIngested(t, follower, total)

	if got, want := analyticsDump(t, tsF.URL), analyticsDump(t, tsP.URL); got != want {
		t.Fatalf("follower analytics differ from primary\n got: %s\nwant: %s", got, want)
	}

	// The follower is read-only: ingest is refused with the
	// machine-readable not_primary code and a role header.
	resp, body := postJSON(t, tsF.URL+"/v1/samples", batches[40])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower ingest: got %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), CodeNotPrimary) {
		t.Fatalf("follower ingest body %q lacks code %q", body, CodeNotPrimary)
	}
	if got := resp.Header.Get(HeaderReplRole); got != RoleFollower {
		t.Fatalf("follower ingest role header = %q", got)
	}

	// /readyz is 200 (queryable) and machine-readable on both sides.
	code, m := readyzJSON(t, tsF.URL)
	if code != http.StatusOK || m["status"] != "ready" || m["role"] != RoleFollower {
		t.Fatalf("follower readyz = %d %v", code, m)
	}
	if _, ok := m["repl_lag_records"]; !ok {
		t.Fatalf("follower readyz lacks repl_lag_records: %v", m)
	}
	code, m = readyzJSON(t, tsP.URL)
	if code != http.StatusOK || m["role"] != RolePrimary || m["epoch"] != float64(1) {
		t.Fatalf("primary readyz = %d %v", code, m)
	}

	// Acceptance metrics on both sides.
	_, mp := get(t, tsP.URL+"/metrics")
	for _, want := range []string{"powserved_repl_epoch 1", `powserved_repl_follower_acked_lsn{follower="f1"}`, "powserved_repl_streamed_records_total"} {
		if !strings.Contains(string(mp), want) {
			t.Fatalf("primary /metrics lacks %q", want)
		}
	}
	_, mf := get(t, tsF.URL+"/metrics")
	for _, want := range []string{"powserved_repl_lag_records", "powserved_repl_role 0", "powserved_repl_applied_records_total"} {
		if !strings.Contains(string(mf), want) {
			t.Fatalf("follower /metrics lacks %q", want)
		}
	}
	// Each of the 40 data frames the follower applied is one observation
	// of its apply latency, observed before the frame is counted applied.
	waitFor(t, "40 applied frames", func() bool { return follower.dur.repl.followerStats().AppliedRecords == 40 })
	if _, mf = get(t, tsF.URL+"/metrics"); !strings.Contains(string(mf), "\npowserved_repl_apply_seconds_count 40\n") {
		t.Fatalf("follower /metrics lacks powserved_repl_apply_seconds_count 40:\n%s", mf)
	}

	// Crash the follower, keep feeding the primary, restart the
	// follower over the same dir: it must resume from its recovered
	// primary-LSN watermark and converge again.
	crash(t, follower, tsF)
	total += sendAll(t, tsP.URL, batches[40:])
	waitIngested(t, primary, total)

	follower2, tsF2 := testNode{dir: dirF, follow: tsP.URL}.start(t)
	waitIngested(t, follower2, total)
	if got, want := analyticsDump(t, tsF2.URL), analyticsDump(t, tsP.URL); got != want {
		t.Fatal("follower analytics diverged after crash + resume")
	}
}

// TestSemiSyncAck: with SyncAck on, a 202 from the primary means every
// registered follower already applied the batch durably — checked by
// reading the follower's counter immediately after the ack, no polling.
func TestSemiSyncAck(t *testing.T) {
	primary, tsP := testNode{dir: t.TempDir(), dur: DurabilityConfig{
		Replication: &ReplicationConfig{SyncAck: true, SyncAckTimeout: 3 * time.Second, HeartbeatEvery: 25 * time.Millisecond},
	}}.start(t)

	batches := stampedBatches(4, 20)
	// No follower registered: no wait, plain 202s.
	n := sendAll(t, tsP.URL, batches[:5])
	waitIngested(t, primary, n)

	follower, _ := testNode{dir: t.TempDir(), follow: tsP.URL}.start(t)
	// Wait for the follower to register (first stream request).
	waitFor(t, "the follower to register", func() bool {
		_, cnt := primary.dur.repl.source.MinAcked()
		return cnt > 0
	})

	for _, b := range batches[5:] {
		resp, body := postJSON(t, tsP.URL+"/v1/samples", b)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seq %d: %d %s", b.Seq, resp.StatusCode, body)
		}
		n += int64(len(b.Samples))
		if got := follower.store.Ingested(); got < n {
			t.Fatalf("202 for seq %d but follower holds %d of %d samples", b.Seq, got, n)
		}
	}
}

// TestPromotionAndFencing is the failover story: promote the follower,
// verify the epoch bump, verify redelivered batches dedup, and verify
// the stale primary is fenced with the distinct 409 code — stickily.
func TestPromotionAndFencing(t *testing.T) {
	primary, tsP := testNode{dir: t.TempDir()}.start(t)
	follower, tsF := testNode{dir: t.TempDir(), follow: tsP.URL}.start(t)

	batches := stampedBatches(8, 32)
	total := sendAll(t, tsP.URL, batches[:30])
	waitIngested(t, primary, total)
	waitIngested(t, follower, total)

	// Promote. The primary booted at epoch 1, so promotion lands at 2.
	resp, body := postJSON(t, tsF.URL+"/v1/promote", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d %s", resp.StatusCode, body)
	}
	var pr struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &pr); err != nil || pr.Role != RolePrimary || pr.Epoch != 2 {
		t.Fatalf("promote response %s (err %v), want role=primary epoch=2", body, err)
	}
	// Idempotent.
	resp, body = postJSON(t, tsF.URL+"/v1/promote", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"epoch":2`) {
		t.Fatalf("re-promote: %d %s", resp.StatusCode, body)
	}

	// The promoted node takes fresh writes...
	resp, body = postJSON(t, tsF.URL+"/v1/samples", batches[30])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after promotion: %d %s", resp.StatusCode, body)
	}
	// ...and redelivery of a batch the old primary acked is a duplicate:
	// the dedup index replicated with the data.
	redo := batches[29]
	redo.Redelivery = true
	resp, body = postJSON(t, tsF.URL+"/v1/samples", redo)
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), `"duplicate":true`) {
		t.Fatalf("redelivered seq %d: %d %s, want duplicate ack", redo.Seq, resp.StatusCode, body)
	}

	// Fencing: the first write carrying the new epoch fences the old
	// primary — 409, distinct code, fenced header.
	resp, body = postJSON(t, tsP.URL+"/v1/samples", batches[31], HeaderReplEpoch, fmtUint(pr.Epoch))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale primary ingest: got %d, want 409", resp.StatusCode)
	}
	if !strings.Contains(string(body), CodeStaleEpoch) {
		t.Fatalf("stale primary body %q lacks code %q", body, CodeStaleEpoch)
	}
	if resp.Header.Get(HeaderReplFenced) != "1" {
		t.Fatal("stale primary response lacks X-Repl-Fenced")
	}
	// Sticky: even a write with no epoch header stays fenced.
	resp, _ = postJSON(t, tsP.URL+"/v1/samples", batches[31])
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fencing not sticky: got %d, want 409", resp.StatusCode)
	}
	// The fenced primary still serves reads, and says so on /readyz.
	code, m := readyzJSON(t, tsP.URL)
	if code != http.StatusOK || m["fenced"] != true {
		t.Fatalf("fenced primary readyz = %d %v", code, m)
	}

	// The new primary's metrics carry the acceptance series.
	_, mf := get(t, tsF.URL+"/metrics")
	for _, want := range []string{"powserved_repl_epoch 2", "powserved_repl_role 1", "powserved_repl_promotions_total 1"} {
		if !strings.Contains(string(mf), want) {
			t.Fatalf("promoted node /metrics lacks %q", want)
		}
	}
}

// TestFollowerBootstrapFromSnapshot: a follower that starts after the
// primary reaped its early WAL must install a snapshot, then stream the
// tail — and the installed dedup index must survive promotion, turning
// every redelivered batch into a duplicate (zero double-counting).
func TestFollowerBootstrapFromSnapshot(t *testing.T) {
	primary, tsP := testNode{dir: t.TempDir(), dur: DurabilityConfig{SegmentBytes: 256}}.start(t)

	batches := stampedBatches(13, 40)
	total := sendAll(t, tsP.URL, batches)
	waitIngested(t, primary, total)
	if _, _, err := primary.dur.snapshotOnce(primary); err != nil {
		t.Fatal(err)
	}
	first, err := primary.dur.log.FirstLSN()
	if err != nil {
		t.Fatal(err)
	}
	if first <= 1 {
		t.Fatalf("reap left oldest lsn %d; the bootstrap path needs a gap", first)
	}

	follower, tsF := testNode{dir: t.TempDir(), follow: tsP.URL}.start(t)
	waitIngested(t, follower, total)
	if got, want := analyticsDump(t, tsF.URL), analyticsDump(t, tsP.URL); got != want {
		t.Fatal("bootstrapped follower analytics differ from primary")
	}
	// The store state lands (satisfying waitIngested) before the
	// install's own bookkeeping finishes — poll the counter briefly.
	waitFor(t, "one snapshot install", func() bool { return follower.dur.repl.followerStats().SnapshotInstalls == 1 })

	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	// The shipper never saw the failover: it redelivers everything it
	// has no ack for. All 40 must dedup against the installed index.
	for _, b := range batches {
		b.Redelivery = true
		resp, body := postJSON(t, tsF.URL+"/v1/samples", b)
		if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), `"duplicate":true`) {
			t.Fatalf("redelivered seq %d: %d %s, want duplicate ack", b.Seq, resp.StatusCode, body)
		}
	}
	if got := follower.store.Ingested(); got != total {
		t.Fatalf("double-counted: ingested %d, want %d", got, total)
	}
	if got := follower.metrics.batchesDuplicate.Value(); got != int64(len(batches)) {
		t.Fatalf("duplicate counter = %d, want %d", got, len(batches))
	}
}

// TestReadyzJSONShape: the machine-readable body carries the
// replication fields on durable servers and stays minimal on
// memory-only ones — with the status codes of the original probe.
func TestReadyzJSONShape(t *testing.T) {
	_, ts := testNode{}.start(t)
	code, m := readyzJSON(t, ts.URL)
	if code != http.StatusOK || m["status"] != "ready" {
		t.Fatalf("memory readyz = %d %v", code, m)
	}
	if _, ok := m["role"]; ok {
		t.Fatalf("memory readyz should not report a role: %v", m)
	}

	_, tsD := testNode{dir: t.TempDir()}.start(t)
	code, m = readyzJSON(t, tsD.URL)
	if code != http.StatusOK {
		t.Fatalf("durable readyz = %d", code)
	}
	for _, k := range []string{"status", "role", "epoch", "fenced", "applied_lsn", "repl_applied_lsn", "repl_lag_records"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("durable readyz lacks %q: %v", k, m)
		}
	}
	if m["role"] != RolePrimary || m["fenced"] != false {
		t.Fatalf("durable readyz = %v", m)
	}
}

// TestReplicationConfigCheck: role settings that would quietly start a
// second primary are refused — by Check, which a daemon runs on its
// flags with or without a data dir, and by NewDurable before it locks
// the dir — and the ones that name one role are taken.
func TestReplicationConfigCheck(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     *ReplicationConfig
		elected bool
		refuse  string // "" when taken
	}{
		{"default primary", &ReplicationConfig{}, false, ""},
		{"explicit primary", &ReplicationConfig{Role: RolePrimary}, false, ""},
		{"static follower", &ReplicationConfig{Role: RoleFollower, PrimaryURL: "http://p"}, false, ""},
		{"follower without a primary URL", &ReplicationConfig{Role: RoleFollower}, false, "a follower needs one"},
		{"primary URL without role follower", &ReplicationConfig{PrimaryURL: "http://p"}, false, "second primary"},
		{"primary URL with role primary", &ReplicationConfig{Role: RolePrimary, PrimaryURL: "http://p"}, false, "second primary"},
		{"unknown role", &ReplicationConfig{Role: "leader"}, false, "unknown replication role"},
		{"elected, no role", &ReplicationConfig{FollowerID: "b"}, true, ""},
		{"elected with role primary", &ReplicationConfig{Role: RolePrimary}, true, "epoch record"},
		{"elected with role follower", &ReplicationConfig{Role: RoleFollower, PrimaryURL: "http://p"}, true, "epoch record"},
		{"elected with a primary URL", &ReplicationConfig{PrimaryURL: "http://p"}, true, "second primary"},
		{"elected with an unknown role", &ReplicationConfig{Role: "witness"}, true, "unknown replication role"},
	} {
		err := tc.cfg.Check(tc.elected)
		if tc.refuse == "" && err != nil || tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)) {
			t.Errorf("%s: Check(%v) = %v, want %q", tc.name, tc.elected, err, tc.refuse)
		}
		if tc.elected || tc.refuse == "" {
			continue
		}
		// NewDurable refuses the same before it locks the dir: a second
		// open of the dir is not refused as locked.
		dir := t.TempDir()
		if s, err := NewDurable(durableStore(), nil, DefaultConfig(), DurabilityConfig{Dir: dir, Replication: tc.cfg}); err == nil || !strings.Contains(err.Error(), tc.refuse) {
			if s != nil {
				s.Close()
			}
			t.Errorf("%s: NewDurable = %v, want %q", tc.name, err, tc.refuse)
		}
		s, err := NewDurable(durableStore(), nil, DefaultConfig(), DurabilityConfig{Dir: dir})
		if err != nil {
			t.Fatalf("%s: the refused open left the dir locked: %v", tc.name, err)
		}
		s.Close()
	}

	// StartElection refuses a server configured with a role.
	s, err := NewDurable(durableStore(), nil, DefaultConfig(), DurabilityConfig{Dir: t.TempDir(),
		Replication: &ReplicationConfig{Role: RoleFollower, PrimaryURL: "http://p"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.StartElection(context.Background(), elect.Config{ID: "a"}); err == nil || !strings.Contains(err.Error(), "epoch record") {
		t.Errorf("StartElection on a static follower = %v, want a refusal naming the epoch record", err)
	}
}
