package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"hpcpower/internal/vfs"
)

// waitDegraded polls /readyz until storage_degraded matches want.
func waitDegraded(t *testing.T, url string, want bool) map[string]any {
	t.Helper()
	var rb map[string]any
	waitFor(t, fmt.Sprintf("/readyz to report storage_degraded=%v", want), func() bool {
		var code int
		if code, rb = readyzJSON(t, url); code != http.StatusOK {
			t.Fatalf("/readyz: %d %v", code, rb)
		}
		got, _ := rb["storage_degraded"].(bool)
		return got == want
	})
	return rb
}

// TestStorageDegradedRejectsIngestAndRecovers drives the degraded-mode
// loop end to end, on a disk that fills up after a healthy ingest and on
// one whose probe fails from the first check: the disk monitor's write
// probe fails (injected, scoped to the probe file so the WAL stays
// healthy), ingest flips to 503 storage_degraded while reads keep
// serving, and everything recovers on its own once the "disk" heals.
func TestStorageDegradedRejectsIngestAndRecovers(t *testing.T) {
	for _, tc := range []struct {
		name       string
		boot, fail vfs.FaultConfig // the disk at start, and after one healthy ingest (zero: no such ingest)
	}{
		{name: "fills up", fail: vfs.FaultConfig{WriteBudget: 1, PathSubstring: ".disk-probe"}},
		{name: "boots degraded", boot: vfs.FaultConfig{WriteErrProb: 1, PathSubstring: ".disk-probe"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := vfs.NewFault(vfs.OS, tc.boot)
			_, ts := testNode{dir: t.TempDir(), dur: DurabilityConfig{FS: ffs, DiskCheckInterval: 10 * time.Millisecond}}.start(t)

			batches := stampedBatches(7, 4)
			if tc.fail != (vfs.FaultConfig{}) {
				resp, body := postJSON(t, ts.URL+"/v1/samples", batches[0])
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("healthy ingest: %d %s", resp.StatusCode, body)
				}
				ffs.Configure(func(c *vfs.FaultConfig) { *c = tc.fail })
			}
			rb := waitDegraded(t, ts.URL, true)
			if reason, _ := rb["storage_reason"].(string); reason == "" {
				t.Fatal("/readyz degraded without a storage_reason")
			}

			resp, body := postJSON(t, ts.URL+"/v1/samples", batches[1])
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("degraded ingest = %d %s, want 503", resp.StatusCode, body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("degraded 503 missing Retry-After")
			}
			if resp.Header.Get(HeaderStorageDegraded) != "1" {
				t.Fatalf("degraded 503 missing %s header", HeaderStorageDegraded)
			}
			var errBody struct {
				Code string `json:"code"`
			}
			if err := json.Unmarshal(body, &errBody); err != nil || errBody.Code != CodeStorageDegraded {
				t.Fatalf("degraded 503 body = %s, want code %q", body, CodeStorageDegraded)
			}

			// Reads must keep serving from what's already durable.
			resp, body = get(t, ts.URL+"/v1/summary")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("read while degraded: %d %s", resp.StatusCode, body)
			}

			// The disk heals; the monitor must clear degraded mode on its own
			// and ingest must work again without a restart.
			ffs.Configure(func(c *vfs.FaultConfig) { *c = vfs.FaultConfig{} })
			waitDegraded(t, ts.URL, false)
			resp, body = postJSON(t, ts.URL+"/v1/samples", batches[1])
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("ingest after recovery: %d %s", resp.StatusCode, body)
			}

			resp, body = get(t, ts.URL+"/metrics")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/metrics: %d", resp.StatusCode)
			}
			text := string(body)
			if !strings.Contains(text, "powserved_disk_degraded 0") {
				t.Errorf("metrics: powserved_disk_degraded should be 0 after recovery")
			}
			if !strings.Contains(text, "powserved_disk_transitions_total") ||
				strings.Contains(text, "powserved_disk_transitions_total 0") {
				t.Errorf("metrics: expected non-zero powserved_disk_transitions_total")
			}
		})
	}
}

// TestWALFsyncFailureMapsToStorageDegraded: when the WAL's group-commit
// fsync fails, the ingest ack path must answer 503 storage_degraded
// (backpressure — shippers wait and re-send), and because a failed
// fsync permanently poisons the log, ingest must stay down even after
// the disk "recovers"; /readyz names the restart-required condition.
func TestWALFsyncFailureMapsToStorageDegraded(t *testing.T) {
	ffs := vfs.NewFault(vfs.OS, vfs.FaultConfig{})
	_, ts := testNode{dir: t.TempDir(), dur: DurabilityConfig{FS: ffs, DiskCheckInterval: 10 * time.Millisecond}}.start(t)

	batches := stampedBatches(11, 3)
	resp, body := postJSON(t, ts.URL+"/v1/samples", batches[0])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy ingest: %d %s", resp.StatusCode, body)
	}

	ffs.Configure(func(c *vfs.FaultConfig) {
		c.SyncErrProb = 1
		c.PathSubstring = "wal-"
	})
	resp, body = postJSON(t, ts.URL+"/v1/samples", batches[1])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest with failing fsync = %d %s, want 503", resp.StatusCode, body)
	}
	var errBody struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &errBody); err != nil || errBody.Code != CodeStorageDegraded {
		t.Fatalf("fsync-failure 503 body = %s, want code %q", body, CodeStorageDegraded)
	}

	// The disk heals — but the unacked batch may be gone from the page
	// cache, so the poisoned log must keep refusing appends and the
	// monitor must hold degraded mode with a restart-required reason.
	ffs.Configure(func(c *vfs.FaultConfig) { c.SyncErrProb = 0 })
	rb := waitDegraded(t, ts.URL, true)
	reason, _ := rb["storage_reason"].(string)
	if !strings.Contains(reason, "restart required") {
		t.Fatalf("storage_reason = %q, want a restart-required WAL-poison reason", reason)
	}
	resp, body = postJSON(t, ts.URL+"/v1/samples", batches[2])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest on poisoned WAL = %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get(HeaderStorageDegraded) != "1" {
		t.Fatalf("poisoned-WAL 503 missing %s header", HeaderStorageDegraded)
	}
}
