package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"

	"hpcpower/internal/obs"
)

// legacyMetricNames is every powserved_* series the pre-registry
// emitters produced. The obs.Registry rewrite must keep each one
// byte-compatible so existing scrapes and dashboards survive.
// (powserved_repl_follower_acked_lsn is omitted: it only appears once a
// follower has registered, which TestTracePropagatesToFollower covers.)
var legacyMetricNames = []string{
	"powserved_samples_ingested_total",
	"powserved_batches_accepted_total",
	"powserved_batches_rejected_total",
	"powserved_batches_invalid_total",
	"powserved_batches_duplicate_total",
	"powserved_batches_stale_total",
	"powserved_redeliveries_total",
	"powserved_requests_total",
	"powserved_request_seconds_sum",
	"powserved_request_seconds_max",
	"powserved_request_errors_total",
	"powserved_ingest_queue_depth",
	"powserved_agent_breaker_state",
	"powserved_agent_retries",
	"powserved_agent_spill_depth",
	"powserved_wal_appends_total",
	"powserved_wal_fsyncs_total",
	"powserved_wal_rotations_total",
	"powserved_wal_segments",
	"powserved_wal_last_lsn",
	"powserved_wal_synced_lsn",
	"powserved_wal_truncated_bytes_total",
	"powserved_wal_dropped_segments_total",
	"powserved_snapshots_total",
	"powserved_snapshot_errors_total",
	"powserved_snapshot_last_lsn",
	"powserved_snapshot_last_bytes",
	"powserved_snapshot_last_seconds",
	"powserved_recovery_seconds",
	"powserved_recovery_snapshot_found",
	"powserved_recovery_snapshot_lsn",
	"powserved_recovery_records_replayed",
	"powserved_recovery_samples_replayed",
	"powserved_recovery_records_skipped",
	"powserved_recovery_tombstoned",
	"powserved_recovery_truncated_bytes",
	"powserved_recovery_snapshots_skipped",
	"powserved_recovery_snapshot_bytes",
	"powserved_recovery_snapshot_seconds",
	"powserved_recovery_stale_lock",
	"powserved_repl_epoch",
	"powserved_repl_role",
	"powserved_repl_fenced",
	"powserved_repl_lag_records",
	"powserved_repl_watermark",
	"powserved_repl_promotions_total",
	"powserved_repl_streamed_records_total",
	"powserved_repl_applied_lsn",
	"powserved_repl_applied_records_total",
	"powserved_repl_snapshot_installs_total",
	"powserved_repl_reconnects_total",
	"powserved_repl_followers",
}

// scrapeMetrics exercises the ingest and query paths, then returns one
// /metrics scrape with every family populated.
func scrapeMetrics(t *testing.T) string {
	t.Helper()
	s, ts := testNode{dir: t.TempDir()}.start(t)

	total := sendAll(t, ts.URL, stampedBatches(7, 8))
	waitIngested(t, s, total)
	get(t, ts.URL+"/v1/summary")
	_, body := get(t, ts.URL+"/metrics")
	return string(body)
}

func TestMetricsLegacyNamesPreserved(t *testing.T) {
	body := scrapeMetrics(t)
	for _, name := range legacyMetricNames {
		if !strings.Contains(body, "\n"+name+"{") && !strings.Contains(body, "\n"+name+" ") {
			t.Errorf("/metrics lost legacy series %s", name)
		}
	}
}

func TestMetricsHistogramFamiliesPresent(t *testing.T) {
	body := scrapeMetrics(t)
	for _, name := range []string{
		"powserved_request_latency_seconds_bucket",
		"powserved_ingest_e2e_seconds_bucket",
		"powserved_wal_append_seconds_bucket",
		"powserved_wal_fsync_seconds_bucket",
		"powserved_group_commit_records_bucket",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics lacks histogram series %s", name)
		}
	}
	// The ingest and WAL histograms must have actually observed the
	// batches sent above, not just expose empty bucket scaffolding.
	for _, count := range []string{
		"powserved_ingest_e2e_seconds_count 8",
		"powserved_wal_append_seconds_count 8",
	} {
		if !strings.Contains(body, count) {
			t.Errorf("/metrics lacks %q (histogram not fed by the hot path)", count)
		}
	}
	if strings.Contains(body, "powserved_wal_fsync_seconds_count 0") {
		t.Error("WAL fsync histogram is empty after acknowledged durable ingest")
	}
}

// TestMetricsExpositionLint holds every scrape to the Prometheus text
// exposition rules (TYPE before series, no duplicates, monotone
// cumulative buckets with an +Inf bound).
func TestMetricsExpositionLint(t *testing.T) {
	body := scrapeMetrics(t)
	if err := obs.LintExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics violates the exposition format: %v\n%s", err, body)
	}
}

// postTraced POSTs a batch with an X-Trace-Id header.
func postTraced(t testing.TB, url, traceID string, body any) *http.Response {
	t.Helper()
	resp, _ := postJSON(t, url+"/v1/samples", body, obs.HeaderTraceID, traceID)
	return resp
}

// waitTraceStages polls url's trace ring until the trace shows every
// wanted stage (or times out).
func waitTraceStages(t *testing.T, url, traceID string, stages ...string) {
	t.Helper()
	waitFor(t, fmt.Sprintf("trace %s to reach stages %v", traceID, stages), func() bool {
		_, body := get(t, url+"/debug/traces/recent?trace="+traceID)
		var out struct {
			Traces []obs.TraceEvent `json:"traces"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("trace ring body %q: %v", body, err)
		}
		seen := map[string]bool{}
		for _, ev := range out.Traces {
			if ev.Trace == traceID {
				seen[ev.Stage] = true
			}
		}
		for _, st := range stages {
			if !seen[st] {
				return false
			}
		}
		return true
	})
}

// TestIngestTraceRoundTrip: an X-Trace-Id sent with a durable ingest is
// echoed on the ack and lands in the trace ring with both the ingest
// and apply stages.
func TestIngestTraceRoundTrip(t *testing.T) {
	_, ts := testNode{dir: t.TempDir()}.start(t)

	traceID := obs.NewTraceID()
	batch := stampedBatches(3, 1)[0]
	resp := postTraced(t, ts.URL, traceID, batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.HeaderTraceID); got != traceID {
		t.Fatalf("ack trace header = %q, want %q", got, traceID)
	}
	waitTraceStages(t, ts.URL, traceID, "ingest", "apply")
}

// TestTracePropagatesToFollower: the trace ID rides the WAL body across
// the replication stream, so the follower's ring holds a repl_apply
// event under the same ID the shipper minted.
func TestTracePropagatesToFollower(t *testing.T) {
	_, tsP := testNode{dir: t.TempDir()}.start(t)
	follower, tsF := testNode{dir: t.TempDir(), follow: tsP.URL}.start(t)

	traceID := obs.NewTraceID()
	batch := stampedBatches(5, 1)[0]
	if resp := postTraced(t, tsP.URL, traceID, batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d, want 202", resp.StatusCode)
	}
	waitIngested(t, follower, int64(len(batch.Samples)))
	waitTraceStages(t, tsP.URL, traceID, "ingest", "apply")
	waitTraceStages(t, tsF.URL, traceID, "repl_apply")

	// The follower registered on the primary, so the one legacy series
	// the standalone scrape cannot show must be live now.
	_, mp := get(t, tsP.URL+"/metrics")
	if !strings.Contains(string(mp), "powserved_repl_follower_acked_lsn{") {
		t.Error("primary /metrics lacks powserved_repl_follower_acked_lsn after follower attach")
	}
	// Streaming that record was one catch-up burst, timed on the primary.
	if !strings.Contains(string(mp), "# HELP powserved_repl_stream_read_seconds ") ||
		strings.Contains(string(mp), "powserved_repl_stream_read_seconds_count 0\n") {
		t.Error("primary /metrics lacks an observed powserved_repl_stream_read_seconds with HELP text")
	}
	if err := obs.LintExposition(bytes.NewReader(mp)); err != nil {
		t.Errorf("primary /metrics with follower violates exposition format: %v", err)
	}
}

// readmeTableNames returns the first column of the README table that
// follows the paragraph opening with marker.
func readmeTableNames(t *testing.T, readme, marker string) []string {
	t.Helper()
	i := strings.Index(readme, "\n"+marker)
	if i < 0 {
		t.Fatalf("README.md has no paragraph opening with %s", marker)
	}
	var names []string
	inTable := false
	for _, line := range strings.Split(readme[i+1:], "\n") {
		switch {
		case strings.HasPrefix(line, "|"):
			if inTable && !strings.HasPrefix(line, "|---") {
				names = append(names, strings.Trim(strings.SplitN(line, "|", 3)[1], " `"))
			}
			inTable = true // the first row is the header
		case inTable:
			return names
		}
	}
	return names
}

// TestREADMEStageAndRefusalTables: README's Stages table lists exactly
// the stages of stageTable and its Refusals table exactly the reasons of
// the refusals table, so neither drifts from the code.
func TestREADMEStageAndRefusalTables(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var stages, reasons []string
	for _, st := range stageTable {
		stages = append(stages, st.name)
	}
	for _, rf := range refusals {
		if rf.reason != "" {
			reasons = append(reasons, rf.reason)
		}
	}
	for _, tc := range []struct {
		marker string
		want   []string
	}{{"**Stages.**", stages}, {"**Refusals.**", reasons}} {
		got := readmeTableNames(t, string(raw), tc.marker)
		for _, name := range tc.want {
			if !slices.Contains(got, name) {
				t.Errorf("README.md's %s table lacks %s", tc.marker, name)
			}
		}
		for _, name := range got {
			if !slices.Contains(tc.want, name) {
				t.Errorf("README.md's %s table lists %s, which the code does not have", tc.marker, name)
			}
		}
	}
}
