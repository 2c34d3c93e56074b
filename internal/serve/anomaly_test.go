package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/gen"
	"hpcpower/internal/obs"
	"hpcpower/internal/ship"
	"hpcpower/internal/trace"
)

// anomalyNode is a memory-only node with one ingest worker, running the
// default detectors.
var anomalyNode = testNode{anomaly: true, cfg: Config{IngestWorkers: 1}}

// flatBatches slices a constant-power single-job series into 5-sample
// batches — small time-slices, so the engine's batch-granular hysteresis
// advances at sample resolution (matching what powload ships).
func flatBatches(agent string, job uint64, node int, start int64, minutes int, w float64) []trace.SampleBatch {
	var out []trace.SampleBatch
	seq := uint64(1)
	for m := 0; m < minutes; m += 5 {
		b := trace.SampleBatch{AgentID: agent, Seq: seq}
		seq++
		for i := m; i < m+5 && i < minutes; i++ {
			b.Samples = append(b.Samples, trace.PowerSample{
				Node: node, JobID: job, Unix: start + int64(i)*60, PowerW: w,
			})
		}
		out = append(out, b)
	}
	return out
}

// anomalyEvents GETs /v1/anomalies with the given query string and
// decodes the event list.
func anomalyEvents(t testing.TB, url, query string) []anomaly.Event {
	t.Helper()
	resp, body := get(t, url+"/v1/anomalies"+query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/anomalies%s status %d: %s", query, resp.StatusCode, body)
	}
	var out struct {
		Events []anomaly.Event `json:"events"`
		Count  int             `json:"count"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return out.Events
}

// waitAnomalyFires polls until the server reports want fire events for
// the job.
func waitAnomalyFires(t testing.TB, url string, job uint64, want int) []anomaly.Event {
	t.Helper()
	var evs []anomaly.Event
	waitFor(t, fmt.Sprintf("%d fire events of job %d", want, job), func() bool {
		evs = anomalyEvents(t, url, "?type=fire&job="+fmtUint(job))
		return len(evs) >= want
	})
	return evs
}

func fmtUint(u uint64) string { return strconv.FormatUint(u, 10) }

// TestAnomalyHTTPFireActiveFingerprint: a flatlining job shipped over
// HTTP fires through GET /v1/anomalies, shows as active, serves its
// fingerprint, carries its batch's trace ID, and surfaces in /readyz.
func TestAnomalyHTTPFireActiveFingerprint(t *testing.T) {
	s, ts := anomalyNode.start(t)
	const job, node = 42, 3
	waitIngested(t, s, sendAll(t, ts.URL, flatBatches("fl", job, node, 1_700_000_000, 45, 200), obs.HeaderTraceID, "trace-flat"))
	fires := waitAnomalyFires(t, ts.URL, job, 1)
	ev := fires[0]
	if ev.Detector != "flatline" || ev.Job != job || ev.Node != node {
		t.Fatalf("fire event = %+v", ev)
	}
	if ev.Trace != "trace-flat" {
		t.Fatalf("fire event trace = %q, want the ingest batch's trace ID", ev.Trace)
	}

	// Active list.
	resp, body := get(t, ts.URL+"/v1/anomalies?active=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("active status %d: %s", resp.StatusCode, body)
	}
	var act struct {
		Active []anomaly.Alert `json:"active"`
	}
	if err := json.Unmarshal(body, &act); err != nil {
		t.Fatal(err)
	}
	if len(act.Active) != 1 || act.Active[0].Job != job || act.Active[0].Detector != "flatline" {
		t.Fatalf("active = %+v", act.Active)
	}

	// Fingerprint.
	resp, body = get(t, ts.URL+"/v1/anomalies?fingerprint=1&job="+fmtUint(job))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fingerprint status %d: %s", resp.StatusCode, body)
	}
	var fpOut struct {
		Job         uint64              `json:"job"`
		Fingerprint anomaly.Fingerprint `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &fpOut); err != nil {
		t.Fatal(err)
	}
	if fpOut.Fingerprint.N != 45 || fpOut.Fingerprint.Max != 200 {
		t.Fatalf("fingerprint = %+v", fpOut.Fingerprint)
	}

	// Unknown job is a 404; missing job param a 400.
	if resp, _ := get(t, ts.URL+"/v1/anomalies?fingerprint=1&job=9999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fingerprint status %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/anomalies?fingerprint=1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing job status %d, want 400", resp.StatusCode)
	}

	// /readyz carries the detector block.
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d: %s", resp.StatusCode, body)
	}
	var rb struct {
		Anomaly struct {
			Enabled      bool `json:"enabled"`
			Rules        int  `json:"rules"`
			ActiveAlerts int  `json:"active_alerts"`
			Delivering   bool `json:"delivering"`
		} `json:"anomaly"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if !rb.Anomaly.Enabled || rb.Anomaly.Rules != 4 || rb.Anomaly.ActiveAlerts != 1 || !rb.Anomaly.Delivering {
		t.Fatalf("readyz anomaly block = %+v (body %s)", rb.Anomaly, body)
	}
}

// TestAnomalyDisabled: without an engine the endpoint answers 501.
func TestAnomalyDisabled(t *testing.T) {
	_, ts := testNode{}.start(t)
	resp, _ := get(t, ts.URL+"/v1/anomalies")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
}

// TestAnomalyStreamServesBacklog: stream=1 replays the matching ring
// backlog as NDJSON.
func TestAnomalyStreamServesBacklog(t *testing.T) {
	s, ts := anomalyNode.start(t)
	const job = 7
	waitIngested(t, s, sendAll(t, ts.URL, flatBatches("st", job, 1, 1_700_000_000, 45, 190)))
	waitAnomalyFires(t, ts.URL, job, 1)

	resp, err := http.Get(ts.URL + "/v1/anomalies?stream=1&type=fire")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var ev anomaly.Event
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("stream ended before the backlog event")
	}
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatalf("stream line %q: %v", sc.Text(), err)
	}
	if ev.Type != anomaly.EventFire || ev.Job != job {
		t.Fatalf("streamed event = %+v", ev)
	}
}

// TestAnomalyStateRidesSnapshots is the failover/restart contract at
// the serving layer: an alert fired before a restart stays active and
// does not re-fire after recovery, because both the fingerprints (tsdb
// snapshot) and the alert machines (engine state) ride the snapshot.
func TestAnomalyStateRidesSnapshots(t *testing.T) {
	dir := t.TempDir()
	const job = 61
	start := int64(1_700_000_000)

	s1, ts1 := testNode{dir: dir, anomaly: true}.start(t)
	waitIngested(t, s1, sendAll(t, ts1.URL, flatBatches("snap", job, 2, start, 45, 210), obs.HeaderTraceID, "trace-snap"))
	waitAnomalyFires(t, ts1.URL, job, 1)
	s1.Close() // takes the final snapshot

	s2, ts2 := testNode{dir: dir, anomaly: true}.start(t)
	st := s2.anom.Snapshot()
	if st.Fired != 1 || st.Active != 1 {
		t.Fatalf("restored engine: fired %d active %d, want 1/1", st.Fired, st.Active)
	}
	if evs := anomalyEvents(t, ts2.URL, "?type=fire&job="+fmtUint(job)); len(evs) != 1 {
		t.Fatalf("restored ring has %d fire events, want 1", len(evs))
	}

	// Keep the condition holding on the restarted node: no duplicate
	// fire (the restored machine knows it is already firing).
	total2 := sendAll(t, ts2.URL, flatBatches("snap2", job, 2, start+45*60, 30, 210))
	// Throughput counters are not part of the carried state, so the
	// restarted engine counts only post-restart samples.
	waitFor(t, "the engine to observe every sample", func() bool { return s2.anom.Snapshot().Samples >= total2 })
	if got := s2.anom.Snapshot().Fired; got != 1 {
		t.Fatalf("restarted node re-fired: fired counter %d, want 1", got)
	}
	if evs := anomalyEvents(t, ts2.URL, "?type=fire&job="+fmtUint(job)); len(evs) != 1 {
		t.Fatalf("restarted ring has %d fire events, want 1", len(evs))
	}
}

// TestAnomalyFollowerDeliveryGating: a follower's engine tracks state
// silently; promotion flips delivery on.
func TestAnomalyFollowerDeliveryGating(t *testing.T) {
	_, tsP := testNode{dir: t.TempDir()}.start(t)
	s, _ := testNode{dir: t.TempDir(), follow: tsP.URL, anomaly: true}.start(t)
	eng := s.anom
	if eng.Delivering() {
		t.Fatal("follower engine delivers alerts before promotion")
	}
	if _, err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	if !eng.Delivering() {
		t.Fatal("promoted engine still gagged")
	}
}

// TestAnomalyMetricsLint: with the engine enabled (and a fired alert),
// every legacy family survives and the full exposition still lints.
func TestAnomalyMetricsLint(t *testing.T) {
	s, ts := anomalyNode.start(t)
	const job = 9
	waitIngested(t, s, sendAll(t, ts.URL, flatBatches("m", job, 0, 1_700_000_000, 45, 150)))
	waitAnomalyFires(t, ts.URL, job, 1)

	_, body := get(t, ts.URL+"/metrics")
	exp := string(body)
	for _, name := range []string{
		"powserved_anomaly_enabled",
		"powserved_anomaly_rules",
		"powserved_anomaly_jobs",
		"powserved_anomaly_samples_total",
		"powserved_anomaly_batches_total",
		"powserved_anomaly_evals_total",
		"powserved_anomaly_last_sample_unix",
		"powserved_alert_fired_total",
		"powserved_alert_resolved_total",
		"powserved_alert_active",
		"powserved_alert_suppressed_total",
		"powserved_alert_events_total",
		"powserved_alert_events_evicted_total",
		"powserved_alert_delivering",
	} {
		if !strings.Contains(exp, "\n"+name+"{") && !strings.Contains(exp, "\n"+name+" ") {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	if !strings.Contains(exp, `powserved_alert_fired_total{rule="flatline"} 1`) {
		t.Error("/metrics does not count the flatline fire")
	}
	if err := obs.LintExposition(strings.NewReader(exp)); err != nil {
		t.Fatalf("/metrics with anomaly engine violates the exposition format: %v", err)
	}
}

// TestAnomalyEvalsCountedPerJob: every rule is evaluated once per job a
// batch carries, however its samples are split into runs and whatever
// idle samples lie between them, so after known batches
// powserved_anomaly_evals_total is exactly jobs × rules.
func TestAnomalyEvalsCountedPerJob(t *testing.T) {
	s, ts := anomalyNode.start(t)
	rules := s.anom.Snapshot().Rules
	if rules == 0 {
		t.Fatal("the engine runs no rules")
	}
	batch := func(seq uint64) trace.SampleBatch {
		at := int64(1_700_000_000) + int64(seq)*60
		return trace.SampleBatch{AgentID: "evals", Seq: seq, Samples: []trace.PowerSample{
			{Node: 1, JobID: 7, Unix: at, PowerW: 200},
			{Node: 2, JobID: 8, Unix: at, PowerW: 180},
			{Node: 3, JobID: 0, Unix: at, PowerW: 60},
			{Node: 4, JobID: 7, Unix: at, PowerW: 210},
			{Node: 5, JobID: 9, Unix: at, PowerW: 150},
		}}
	}
	for seq := uint64(1); seq <= 2; seq++ {
		sendAll(t, ts.URL, []trace.SampleBatch{batch(seq)})
		waitFor(t, "the engine to observe the batch", func() bool { return s.anom.Snapshot().Batches == int64(seq) })
		_, body := get(t, ts.URL+"/metrics")
		want := fmt.Sprintf("\npowserved_anomaly_evals_total %d\n", 3*rules*int(seq))
		if !strings.Contains(string(body), want) {
			t.Fatalf("after %d batches of 3 jobs and %d rules, /metrics lacks %q", seq, rules, strings.TrimSpace(want))
		}
	}
}

// The anomaly rounds: labeled synthetic jobs shipped over a faulting
// network into a durable node running the default rules must be scored
// perfectly, raise exactly the alerts a fault-free control raises however
// often a batch is delivered, and leave a fire's trace ID in the WAL and
// on the alert log line; the paper's own workload must fire nothing. One
// subtest per seed:
//
//	go test -run 'TestAnomalyRounds/seed=2' ./internal/serve/
var anomalySeeds = []uint64{1, 2}

// lockedBuffer is a log output a test reads while the logger writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestAnomalyRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("anomaly rounds take seconds")
	}
	for _, seed := range anomalySeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { anomalyRound(t, seed) })
	}
	t.Run("clean-emmy", cleanEmmyRound)
}

// anomalyRound ships two jobs of every anomalous profile and four healthy
// controls, two hours each, time-ordered in 5-minute slices.
func anomalyRound(t *testing.T, seed uint64) {
	dir := t.TempDir()
	var alerts lockedBuffer
	s, ts := testNode{dir: dir, quiet: true, anomaly: true, alerts: &alerts}.start(t)

	var mix []string
	for _, p := range anomaly.Profiles() {
		mix = append(mix, p, p)
	}
	mix = append(mix, anomaly.ProfileNormal, anomaly.ProfileNormal, anomaly.ProfileNormal, anomaly.ProfileNormal)
	labels := anomaly.Labels{}
	var series [][]trace.PowerSample
	for i, p := range mix {
		job := uint64(9_000_000 + i)
		ser, err := anomaly.GenProfile(p, job, 90_000+i, 1_700_000_000, 120, 220, int64(seed)*1000+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		labels[job] = p
		series = append(series, ser)
	}
	var net faultNet
	sh := ship.New(ship.Config{URL: net.ingest(ts.URL, faults{err5xx: 0.05, truncate: 0.02, seed: int64(seed)}),
		AgentID: "labeled", Client: net.client(),
		BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond, MaxPending: 1 << 10, Seed: int64(seed)})
	var sent []trace.SampleBatch
	var total int64
	for off := 0; off < 120; off += 5 {
		for _, ser := range series {
			b := trace.SampleBatch{AgentID: "labeled", Samples: ser[off : off+5]}
			b.Seq = sh.Enqueue(b.Samples)
			sent = append(sent, b)
			total += int64(len(b.Samples))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := sh.Flush(ctx); err != nil {
		t.Fatalf("%v: %+v", err, sh.Stats())
	}
	checkShipped(t, "the shipper", sh.Stats(), len(sent))
	if st := sh.Stats(); st.Retries == 0 {
		t.Fatalf("the faults did not bite: %+v", st)
	}
	net.checkFired(t)
	waitIngested(t, s, total)
	checkAckedOnce(t, s, sent, len(sent))

	fires := s.anom.Events(anomaly.Filter{Type: anomaly.EventFire, Node: -1})
	if v := anomaly.Score(labels, fires); v.Precision != 1 || v.Recall != 1 {
		t.Fatalf("precision %.2f, recall %.2f: missed %v, false fires on %v", v.Precision, v.Recall, v.Missed, v.FalseJobs)
	}
	control := controlAnalytics(t, anomalyNode, sent)
	checkSameAsControl(t, "the node", analyticsOf(t, s, ts.URL), control)
	// Every batch again, as the redelivery it now is: nothing moves.
	for _, b := range sent {
		b.Redelivery = true
		if resp, body := postJSON(t, ts.URL+"/v1/samples", b); resp.StatusCode != http.StatusAccepted ||
			!strings.Contains(string(body), `"duplicate":true`) {
			t.Fatalf("redelivering seq %d: %d %s", b.Seq, resp.StatusCode, body)
		}
	}
	checkAckedOnce(t, s, sent, len(sent))
	checkSameAsControl(t, "after the redeliveries", analyticsOf(t, s, ts.URL), control)
	if t.Failed() {
		t.FailNow()
	}

	// One trace ID links the batch that fired, its WAL record and the page.
	id := fires[0].Trace
	if id == "" {
		t.Fatalf("fire %+v carries no trace ID", fires[0])
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s: %v", dir, err)
	}
	inWAL := false
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		inWAL = inWAL || bytes.Contains(raw, []byte(id))
	}
	if !inWAL {
		t.Errorf("trace %s is in no WAL segment", id)
	}
	waitFor(t, "the alert log line", func() bool {
		for _, line := range strings.Split(alerts.String(), "\n") {
			if strings.Contains(line, `msg="alert fire"`) && strings.Contains(line, "trace_id="+id) {
				return true
			}
		}
		return false
	})
	if _, body := get(t, ts.URL+"/metrics"); !bytes.Contains(body, []byte(`powserved_alert_sink_healthy{sink="log"} 1`)) {
		t.Error("/metrics does not report the log sink healthy")
	}
}

// cleanEmmyRound replays the first 60,000 samples of the 2 %-scale Emmy
// dataset: the paper's phased, low-variance jobs inside their 10–12 %
// overshoot envelope are the rules' negative class.
func cleanEmmyRound(t *testing.T) {
	ds, err := gen.Generate(gen.EmmyConfig(0.02, 42))
	if err != nil {
		t.Fatal(err)
	}
	samples := trace.FlattenSeries(ds)[:60_000]
	var batches []trace.SampleBatch
	for off := 0; off < len(samples); off += 512 {
		batches = append(batches, trace.SampleBatch{AgentID: "emmy", Seq: uint64(len(batches) + 1),
			Samples: samples[off:min(off+512, len(samples))]})
	}
	s, ts := anomalyNode.start(t)
	waitIngested(t, s, sendAll(t, ts.URL, batches))
	if fires := s.anom.Events(anomaly.Filter{Type: anomaly.EventFire, Node: -1}); len(fires) != 0 {
		t.Fatalf("%d fires on the clean workload, first %+v", len(fires), fires[0])
	}
}
