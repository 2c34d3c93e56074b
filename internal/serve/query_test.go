package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/core"
	"hpcpower/internal/obs"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

const qWindow = 7200

// blockNode is a memory-only node with a block store attached (manual
// flush only: BlockFlushInterval stays 0 in tests).
var blockNode = testNode{ringLen: 1024, blockWindow: qWindow}

// blockBatches spans two whole 2h windows of per-minute samples plus a
// short head-only tail in the third, for four nodes.
func blockBatches() []trace.SampleBatch {
	var samples []trace.PowerSample
	add := func(from, to int64) {
		for ts := from; ts < to; ts += 60 {
			for n := 0; n < 4; n++ {
				samples = append(samples, trace.PowerSample{
					Node: n, JobID: uint64(n + 1), Unix: ts,
					PowerW: 100 + 10*float64(n) + float64(ts%600)/100,
				})
			}
		}
	}
	add(qWindow, 3*qWindow)       // windows 1 and 2, sealed by any flush
	add(3*qWindow, 3*qWindow+600) // tail: 10 minutes into window 3
	var out []trace.SampleBatch
	for off := 0; off < len(samples); off += 120 {
		end := off + 120
		if end > len(samples) {
			end = len(samples)
		}
		out = append(out, trace.SampleBatch{
			AgentID: "blk", Seq: uint64(len(out) + 1), Samples: samples[off:end],
		})
	}
	return out
}

func TestQueryEndpoints(t *testing.T) {
	s, ts := blockNode.start(t)
	batches := blockBatches()
	total := sendAll(t, ts.URL, batches)
	waitIngested(t, s, total)

	// Seal windows 1 and 2 by hand (historical timestamps — the admin
	// flush with a wall-clock cut is exercised by the crash test below).
	sealed, err := s.store.FlushBlocks(3 * qWindow)
	if err != nil {
		t.Fatal(err)
	}
	if sealed != 2 {
		t.Fatalf("sealed %d windows, want 2", sealed)
	}
	if _, err := s.store.Blocks().CompactPending(); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts.URL+"/v1/query/nodes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nodes: %d %s", resp.StatusCode, body)
	}
	var nodes struct {
		Nodes    []int `json:"nodes"`
		Frontier int64 `json:"frontier"`
	}
	if err := json.Unmarshal(body, &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes.Nodes) != 4 || nodes.Frontier != 3*qWindow {
		t.Fatalf("nodes %v frontier %d, want 4 nodes frontier %d", nodes.Nodes, nodes.Frontier, 3*qWindow)
	}

	// Merged range read: both block windows plus the head tail.
	resp, body = get(t, ts.URL+"/v1/query/range?node=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range: %d %s", resp.StatusCode, body)
	}
	var rr struct {
		Node     int          `json:"node"`
		Frontier int64        `json:"frontier"`
		Points   []tsdb.Point `json:"points"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	wantPoints := 2*(qWindow/60) + 10
	if len(rr.Points) != wantPoints {
		t.Fatalf("range returned %d points, want %d", len(rr.Points), wantPoints)
	}
	for i := 1; i < len(rr.Points); i++ {
		if rr.Points[i].Unix <= rr.Points[i-1].Unix {
			t.Fatalf("range not time-ordered at %d", i)
		}
	}

	// Aggregate pull at the 5m tier.
	resp, body = get(t, ts.URL+"/v1/query/range?node=2&from="+strconv.Itoa(qWindow)+"&to="+strconv.Itoa(3*qWindow+599)+"&step=300")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("agg: %d %s", resp.StatusCode, body)
	}
	var ar struct {
		Step   int64            `json:"step"`
		Points []block.AggPoint `json:"points"`
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	wantBuckets := (2*qWindow + 600) / 300
	if len(ar.Points) != wantBuckets {
		t.Fatalf("agg returned %d buckets, want %d", len(ar.Points), wantBuckets)
	}
	for _, a := range ar.Points {
		if a.Count != 5 { // five per-minute samples per 5m bucket
			t.Fatalf("bucket %d count %d, want 5", a.T, a.Count)
		}
	}

	// Distribution covers every sample exactly once, blocks + head.
	resp, body = get(t, ts.URL+"/v1/query/distribution")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distribution: %d %s", resp.StatusCode, body)
	}
	var dr struct {
		Distribution struct {
			N int `json:"n"`
		} `json:"distribution"`
	}
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if int64(dr.Distribution.N) != total {
		t.Fatalf("distribution n=%d, want %d", dr.Distribution.N, total)
	}

	// Parameter validation.
	for _, path := range []string{
		"/v1/query/range",                 // missing node
		"/v1/query/range?node=x",          // non-numeric
		"/v1/query/range?node=1&from=abc", // bad from
		"/v1/query/range?node=1&step=0",   // non-positive step
	} {
		resp, _ := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestAdminFlushWithoutBlocks(t *testing.T) {
	_, ts := testNode{}.start(t)
	resp, err := http.Post(ts.URL+"/v1/admin/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("flush without blocks: %d, want 503", resp.StatusCode)
	}
}

// blockDurableNode is a durable node under root, its WAL in root/wal and
// its blocks in root/blocks, with snapshots out of the way so tests
// control exactly when (and whether) one is taken.
func blockDurableNode(root string) testNode {
	return testNode{dir: filepath.Join(root, "wal"), quiet: true, blockWindow: qWindow}
}

func adminFlush(t testing.TB, url string) flushResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/admin/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fr flushResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin flush: %d", resp.StatusCode)
	}
	return fr
}

// queryDump serializes the whole query surface — the byte-identity
// oracle for block-store recovery.
func queryDump(t testing.TB, url string) string {
	t.Helper()
	var b strings.Builder
	resp, body := get(t, url+"/v1/query/nodes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nodes: %d %s", resp.StatusCode, body)
	}
	b.Write(body)
	var nodes struct {
		Nodes []int `json:"nodes"`
	}
	if err := json.Unmarshal(body, &nodes); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes.Nodes {
		for _, q := range []string{"", "&step=300", "&step=3600"} {
			resp, body = get(t, url+"/v1/query/range?node="+strconv.Itoa(n)+q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("range node %d %q: %d %s", n, q, resp.StatusCode, body)
			}
			b.Write(body)
		}
	}
	resp, body = get(t, url+"/v1/query/distribution")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distribution: %d %s", resp.StatusCode, body)
	}
	b.Write(body)
	return b.String()
}

func rawBlockFiles(t testing.TB, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "blocks", "raw-*.blk"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCrashBetweenFlushAndSnapshot is the satellite regression: a server
// killed after sealing blocks but before any snapshot replays its whole
// WAL on restart. The frontier re-derived from the block files must keep
// the replayed samples out of the block store (no re-flush, no
// double-serve), and every read must come back byte-identical to a
// control that never crashed.
func TestCrashBetweenFlushAndSnapshot(t *testing.T) {
	batches := blockBatches()

	ctl, ctlTS := blockDurableNode(t.TempDir()).start(t)
	total := sendAll(t, ctlTS.URL, batches)
	waitIngested(t, ctl, total)
	adminFlush(t, ctlTS.URL)
	wantAnalytics := analyticsDump(t, ctlTS.URL)
	wantQueries := queryDump(t, ctlTS.URL)

	dir := t.TempDir()
	s1, ts1 := blockDurableNode(dir).start(t)
	sendAll(t, ts1.URL, batches)
	waitIngested(t, s1, total)
	fr := adminFlush(t, ts1.URL)
	if fr.Sealed == 0 {
		t.Fatal("flush sealed nothing — test is vacuous")
	}
	filesBefore := rawBlockFiles(t, dir)
	// SIGKILL between flush and snapshot: snapshots are configured out of
	// the way, so the WAL still describes every sample ever ingested.
	crash(t, s1, ts1)

	s2, ts2 := blockDurableNode(dir).start(t)
	if got := s2.store.Ingested(); got != total {
		t.Fatalf("recovery replayed %d samples, want %d", got, total)
	}
	if f := s2.store.BlockFrontier(); f != fr.Frontier {
		t.Fatalf("recovered frontier %d, want %d", f, fr.Frontier)
	}
	// Replay rebuilt ring points below the frontier; a re-flush must find
	// nothing to seal and the file set must be untouched.
	fr2 := adminFlush(t, ts2.URL)
	if fr2.Sealed != 0 {
		t.Fatalf("post-recovery flush sealed %d windows, want 0", fr2.Sealed)
	}
	filesAfter := rawBlockFiles(t, dir)
	if len(filesAfter) != len(filesBefore) {
		t.Fatalf("raw block files changed across crash: %d → %d", len(filesBefore), len(filesAfter))
	}
	if got := analyticsDump(t, ts2.URL); got != wantAnalytics {
		t.Fatalf("recovered analytics differ from control\n got: %s\nwant: %s", got, wantAnalytics)
	}
	if got := queryDump(t, ts2.URL); got != wantQueries {
		t.Fatalf("recovered query surface differs from control")
	}
}

// TestSnapshotAfterFlushRecovery covers the other interleaving: the
// snapshot lands after the flush and records the frontier, so recovery
// restores store state without replay and still refuses to re-seal.
func TestSnapshotAfterFlushRecovery(t *testing.T) {
	batches := blockBatches()
	dir := t.TempDir()
	s1, ts1 := blockDurableNode(dir).start(t)
	total := sendAll(t, ts1.URL, batches)
	waitIngested(t, s1, total)
	fr := adminFlush(t, ts1.URL)
	want := queryDump(t, ts1.URL)
	if _, _, err := s1.dur.snapshotOnce(s1); err != nil {
		t.Fatal(err)
	}
	crash(t, s1, ts1)

	s2, ts2 := blockDurableNode(dir).start(t)
	if f := s2.store.BlockFrontier(); f != fr.Frontier {
		t.Fatalf("frontier %d, want %d", f, fr.Frontier)
	}
	if fr2 := adminFlush(t, ts2.URL); fr2.Sealed != 0 {
		t.Fatalf("flush after snapshot recovery sealed %d, want 0", fr2.Sealed)
	}
	if got := queryDump(t, ts2.URL); got != want {
		t.Fatalf("query surface differs after snapshot recovery")
	}
}

// TestScrubQuarantinesFlippedBlock: POST /v1/admin/scrub finds one byte
// flipped in a sealed raw block, /metrics counts the quarantine, and the
// 5m answer for the window comes back the same from the rollup tier.
func TestScrubQuarantinesFlippedBlock(t *testing.T) {
	dir := t.TempDir()
	s, ts := blockDurableNode(dir).start(t)
	waitIngested(t, s, sendAll(t, ts.URL, blockBatches()))
	adminFlush(t, ts.URL)
	query := func() string {
		_, body := get(t, ts.URL+"/v1/query/range?node=2&from=0&to=4102444800&step=300")
		return regexp.MustCompile(`"degraded":[a-z]+,?`).ReplaceAllString(string(body), "")
	}
	before := query()
	raw := rawBlockFiles(t, dir)[0]
	b, err := os.ReadFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	b[100] ^= 0xff // inside the first chunk
	if err := os.WriteFile(raw, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var rep scrubResponse
	if _, body := postJSON(t, ts.URL+"/v1/admin/scrub", nil); json.Unmarshal(body, &rep) != nil || rep.Blocks == nil || rep.Blocks.Corrupt < 1 {
		t.Fatalf("scrub answered %s, want a corrupt block", body)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	for _, name := range []string{"powserved_quarantine_files", "powserved_scrub_corrupt_total"} {
		if m := regexp.MustCompile(`(?m)^` + name + ` [1-9]`).Find(metrics); m == nil {
			t.Errorf("/metrics: %s is not at least 1", name)
		}
	}
	if after := query(); after != before {
		t.Fatalf("the 5m answer changed with the raw block quarantined\n got %s\nwant %s", after, before)
	}
}

// refDistribution is the distribution reduction as the endpoint did it
// before it sorted in place: copy the values, sort.Float64s, reduce.
func refDistribution(values []float64) core.LiveDist {
	if len(values) == 0 {
		return core.LiveDist{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	e := stats.NewECDF(s)
	return core.LiveDist{
		N: int64(e.N()), Mean: e.Mean(), Min: e.Quantile(0), Max: e.Quantile(1),
		P50: e.Quantile(0.50), P80: e.Quantile(0.80), P95: e.Quantile(0.95),
		CDF: e.Points(core.CDFPoints),
	}
}

// TestQueryDistributionGolden compares GET /v1/query/distribution byte
// for byte with the reference reduction over the samples that were
// sent, on windows in blocks only, straddling the frontier, in the head
// only, unbounded and empty — and checks that the values it reduced and
// the points range reads returned are counted on /metrics.
func TestQueryDistributionGolden(t *testing.T) {
	s, ts := blockNode.start(t)
	batches := blockBatches()
	waitIngested(t, s, sendAll(t, ts.URL, batches))
	if sealed, err := s.store.FlushBlocks(3 * qWindow); err != nil || sealed != 2 {
		t.Fatalf("sealed %d windows, err %v", sealed, err)
	}
	var scanned int64
	for _, w := range []struct {
		name     string
		from, to int64
	}{
		{"unbounded", 0, 0},
		{"blocks only", qWindow + 600, 2*qWindow + 1799},
		{"straddling the frontier", 3*qWindow - 1800, 3*qWindow + 299},
		{"head only", 3 * qWindow, 3*qWindow + 599},
		{"no samples", 10 * qWindow, 11 * qWindow},
	} {
		var values []float64
		for _, b := range batches {
			for _, smp := range b.Samples {
				if smp.Unix >= w.from && (w.to <= 0 || smp.Unix <= w.to) {
					values = append(values, smp.PowerW)
				}
			}
		}
		scanned += int64(len(values))
		want, err := json.Marshal(map[string]any{
			"distribution": refDistribution(values), "frontier": 3 * qWindow, "degraded": false,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, body := get(t, ts.URL+"/v1/query/distribution?from="+strconv.FormatInt(w.from, 10)+"&to="+strconv.FormatInt(w.to, 10))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", w.name, resp.StatusCode, body)
		}
		if string(body) != string(want)+"\n" {
			t.Fatalf("%s: response differs from the reference reduction\n got %s\nwant %s", w.name, body, want)
		}
	}

	resp, body := get(t, ts.URL+"/v1/query/range?node=1&from="+strconv.Itoa(qWindow)+"&to="+strconv.Itoa(qWindow+3599))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range: %d %s", resp.StatusCode, body)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	for _, line := range []string{
		"# HELP powserved_query_values_scanned_total ",
		`powserved_query_values_scanned_total{endpoint="query_distribution"} ` + strconv.FormatInt(scanned, 10) + "\n",
		`powserved_query_values_scanned_total{endpoint="query_range"} 60` + "\n",
		"# HELP powserved_sort_total ",
		`powserved_sort_total{path="radix"} `,
		"# HELP powserved_distribution_blocks_total ",
		// Unbounded adds both blocks' tables; blocks only and straddling
		// cut them: three edges.
		`powserved_distribution_blocks_total{path="table"} 2` + "\n",
		`powserved_distribution_blocks_total{path="edge"} 3` + "\n",
		`powserved_distribution_blocks_total{path="no_table"} 0` + "\n",
	} {
		if !strings.Contains(string(metrics), line) {
			t.Fatalf("/metrics lacks %q", line)
		}
	}
	if err := obs.LintExposition(strings.NewReader(string(metrics))); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
}
