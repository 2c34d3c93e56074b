package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcpower/internal/obs"
	"hpcpower/internal/ship"
	"hpcpower/internal/trace"
	"hpcpower/internal/wal"
)

// TestIngestDecodeFallback: shipper traffic stays on the scanner, and a
// body outside the canonical form costs one fallback and is answered
// the way encoding/json alone answered it before.
func TestIngestDecodeFallback(t *testing.T) {
	s, ts := testNode{}.start(t)
	fallbacks := func() int64 { return s.metrics.decodeFallback.Value() }

	sh := ship.New(ship.Config{URL: ts.URL + "/v1/samples", AgentID: "rack-7"})
	var shipped int64
	for _, b := range stampedBatches(11, 20) {
		sh.Enqueue(b.Samples)
		shipped += int64(len(b.Samples))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, s, shipped)
	if n := fallbacks(); n != 0 {
		t.Fatalf("%d of 20 shipper batches fell back to encoding/json, want 0", n)
	}

	const samples = `"samples":[{"node":1,"job":2,"t":1700000000,"w":151.2},{"node":2,"job":2,"t":1700000000,"w":99}]`
	for i, body := range []string{
		`{"agent":"\u0061gent","seq":1,` + samples + `}`, // escaped agent ID
		`{"AGENT":"agent","Seq":2,` + samples + `}`,      // upper-case keys
		`{"agent":"agent","seq":1e3,` + samples + `}`,    // seq is not a plain integer
		`{"agent":"agent","seq":4,` + samples + `} tail`, // trailing garbage
	} {
		// What the parent commit's handler did with these bytes.
		var want trace.SampleBatch
		wantStatus, wantBody := http.StatusAccepted, `{"accepted":2}`+"\n"
		if err := json.NewDecoder(bytes.NewReader([]byte(body))).Decode(&want); err != nil {
			wantStatus, wantBody = http.StatusBadRequest, fmt.Sprintf("{\"error\":%q}\n", "decoding batch: "+err.Error())
		}
		resp, got := postRaw(t, ts.URL+"/v1/samples", bytes.NewReader([]byte(body)))
		if resp.StatusCode != wantStatus || string(got) != wantBody {
			t.Errorf("%s:\n got %d %s\nwant %d %s", body, resp.StatusCode, got, wantStatus, wantBody)
		}
		if n := fallbacks(); n != int64(i+1) {
			t.Errorf("%s: fallback counter at %d, want %d", body, n, i+1)
		}
	}
	// The third body must have been refused, the others counted.
	waitIngested(t, s, shipped+6)
	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, line := range []string{
		"# HELP powserved_ingest_decode_fallback_total ",
		"# TYPE powserved_ingest_decode_fallback_total counter\npowserved_ingest_decode_fallback_total 4\n",
	} {
		if !bytes.Contains(metricsBody, []byte(line)) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if err := obs.LintExposition(bytes.NewReader(metricsBody)); err != nil {
		t.Errorf("/metrics violates the exposition format: %v", err)
	}
}

// slowBody delivers its bytes only after a delay, as an agent on a bad
// link does. The delay starts once gate is closed.
type slowBody struct {
	gate  <-chan struct{}
	delay time.Duration
	r     io.Reader
}

func (b *slowBody) Read(p []byte) (int, error) {
	if b.delay > 0 {
		select {
		case <-b.gate:
		case <-time.After(10 * time.Second):
		}
		time.Sleep(b.delay)
		b.delay = 0
	}
	return b.r.Read(p)
}

// firstRead closes gate at the first Read of the body it wraps.
type firstRead struct {
	io.ReadCloser
	once sync.Once
	gate chan struct{}
}

func (b *firstRead) Read(p []byte) (int, error) {
	b.once.Do(func() { close(b.gate) })
	return b.ReadCloser.Read(p)
}

// TestIngestE2EIncludesBodyRead: the e2e histogram and the ingest trace
// event time the request from before the body is read, on the durable
// path as on the memory-only path (the durable path used to restart the
// clock after decode and admission). The body's delay waits for the
// server's first read of the body, which comes after the handler has
// started its clock, so all of the delay falls inside the timed span.
func TestIngestE2EIncludesBodyRead(t *testing.T) {
	const delay = 60 * time.Millisecond
	mem, _ := testNode{}.start(t)
	dur, _ := testNode{dir: t.TempDir()}.start(t)

	for name, s := range map[string]*Server{"memory": mem, "durable": dur} {
		entered := make(chan struct{})
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Body = &firstRead{ReadCloser: r.Body, gate: entered}
			h.ServeHTTP(w, r)
		}))
		body, err := json.Marshal(stampedBatches(13, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		traceID := obs.NewTraceID()
		resp, out := postRaw(t, ts.URL+"/v1/samples", &slowBody{gate: entered, delay: delay, r: bytes.NewReader(body)}, obs.HeaderTraceID, traceID)
		ts.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: %d %s", name, resp.StatusCode, out)
		}
		if sum := s.metrics.stages[stageIngest].Sum(); sum < delay.Seconds() {
			t.Errorf("%s: powserved_ingest_e2e_seconds observed %.4fs, want at least the %v body read", name, sum, delay)
		}
		var ingest *obs.TraceEvent
		for _, ev := range s.metrics.traces.Recent(0) {
			if ev.Trace == traceID && ev.Stage == "ingest" {
				ingest = &ev
			}
		}
		if ingest == nil {
			t.Fatalf("%s: no ingest trace event for %s", name, traceID)
		}
		if ingest.DurMS < float64(delay.Milliseconds()) {
			t.Errorf("%s: ingest trace event dur_ms %.2f, want at least %d", name, ingest.DurMS, delay.Milliseconds())
		}
	}
}

// TestRecoverParentWrittenWAL replays testdata/wal_pr11: a WAL written
// by PR 11's json.Marshal encoder (stamped, traced, follower-applied
// plsn, anonymous, tombstoned, and one agent ID that needs escapes)
// with the answers its replay gives. Those were PR 11's json.Unmarshal
// replay's until exact moments replaced Welford's, which moved ten of
// the numbers by at most 7.6e-15 of themselves. The scanner must reach
// the same analytics byte for byte, and the append encoder must
// reproduce every record it can read.
func TestRecoverParentWrittenWAL(t *testing.T) {
	fixture := filepath.Join("testdata", "wal_pr11")
	dir := copyFixture(t, filepath.Join(fixture, "wal"))
	s, srv := testNode{dir: dir}.start(t)
	ts := srv.URL
	if rep := s.dur.report; rep.RecordsReplayed != 6 || rep.SamplesReplayed != 13 || rep.Tombstoned != 1 || rep.DecodeErrors != 0 {
		t.Errorf("recovery report %+v, want 6 records / 13 samples replayed, 1 tombstoned, 0 decode errors", rep)
	}
	if got := s.dur.repl.replApplied.Load(); got != 42 {
		t.Errorf("pull-loop frontier %d, want the highest plsn in the WAL, 42", got)
	}
	if n := s.metrics.decodeFallback.Value(); n != 1 {
		t.Errorf("%d records fell back to encoding/json, want only the one with the escaped agent ID", n)
	}
	_, summary := get(t, ts+"/v1/summary")
	for file, got := range map[string]string{
		"summary.json":  string(summary),
		"analytics.txt": analyticsDump(t, ts),
	} {
		want, err := os.ReadFile(filepath.Join(fixture, file))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s after replay:\n got %s\nwant %s", file, got, want)
		}
	}

	err := s.dur.log.Replay(func(lsn uint64, typ wal.RecordType, body []byte) error {
		if typ != wal.RecordData {
			return nil
		}
		rec, err := s.decodeWALBody(body, nil)
		if err != nil {
			return fmt.Errorf("lsn %d: %w", lsn, err)
		}
		again, err := trace.AppendWALRecord(nil, &rec)
		if err != nil {
			return fmt.Errorf("lsn %d: %w", lsn, err)
		}
		if !bytes.Equal(again, body) {
			t.Errorf("lsn %d re-encodes to\n %s\nparent wrote\n %s", lsn, again, body)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// walData is the data records of s's WAL, copied, in LSN order.
func walData(t *testing.T, s *Server) [][]byte {
	t.Helper()
	var out [][]byte
	err := s.dur.log.ReadRange(1, s.dur.log.LastLSN(), func(_ uint64, typ wal.RecordType, body []byte) error {
		if typ == wal.RecordData {
			out = append(out, bytes.Clone(body))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWALLogsTheBodyItWasSent: a canonical body that is no redelivery is
// logged as it came, in whatever spelling the scanner accepts, with the
// trace ID spliced in, and a redelivery (its key is no WAL key) is
// encoded afresh. A follower stores a record as it came, with the
// primary's LSN spliced in, unless it already carries a plsn: that one
// is encoded afresh too, so no record holds a key twice.
func TestWALLogsTheBodyItWasSent(t *testing.T) {
	primary, ts := testNode{dir: t.TempDir(), quiet: true}.start(t)
	follower, _ := testNode{dir: t.TempDir(), quiet: true}.start(t)
	const traceID = "4f2a9c0d11e8b7a3"
	spaced := " { \"agent\" : \"a1\" , \"seq\" : 1 ,\n \"samples\" : [ {\"node\":1,\"job\":2,\"t\":1700000000,\"w\":151.20} ] } \n\t"
	if resp, body := postRaw(t, ts.URL+"/v1/samples", bytes.NewReader([]byte(spaced)), obs.HeaderTraceID, traceID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("spaced body: %d %s", resp.StatusCode, body)
	}
	redelivered := trace.SampleBatch{AgentID: "a1", Seq: 2, Redelivery: true, Samples: []trace.PowerSample{{Node: 1, JobID: 2, Unix: 1_700_000_060, PowerW: 99}}}
	if resp, body := postJSON(t, ts.URL+"/v1/samples", redelivered, obs.HeaderTraceID, traceID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("redelivery: %d %s", resp.StatusCode, body)
	}
	encoded := func(r trace.WALRecord) string {
		b, err := trace.AppendWALRecord(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	spacedRec := ` { "agent" : "a1" , "seq" : 1 ,` + "\n" + ` "samples" : [ {"node":1,"job":2,"t":1700000000,"w":151.20} ] ,"trace":"` + traceID + `"}`
	redeliveredRec := trace.WALRecord{Agent: "a1", Seq: 2, Samples: redelivered.Samples, Trace: traceID}
	logged := walData(t, primary)
	if want := []string{spacedRec, encoded(redeliveredRec)}; len(logged) != 2 || string(logged[0]) != want[0] || string(logged[1]) != want[1] {
		t.Fatalf("the primary logged\n %q\nwant\n %q", logged, want)
	}

	// The follower's side: each record under the primary's LSN, and a
	// record a former follower logged, its plsn already set.
	former := trace.WALRecord{Agent: "a2", Seq: 1, Samples: redelivered.Samples, PLSN: 5, Trace: traceID}
	for i, body := range append(logged, []byte(encoded(former))) {
		if err := follower.applyReplicated(uint64(11+i), body); err != nil {
			t.Fatal(err)
		}
	}
	former.PLSN = 13
	want := []string{
		strings.TrimSuffix(spacedRec, "}") + `,"plsn":11}`,
		strings.TrimSuffix(encoded(redeliveredRec), "}") + `,"plsn":12}`,
		encoded(former),
	}
	if stored := walData(t, follower); len(stored) != 3 || string(stored[0]) != want[0] || string(stored[1]) != want[1] || string(stored[2]) != want[2] {
		t.Fatalf("the follower stored\n %q\nwant\n %q", stored, want)
	}
	if n := follower.metrics.decodeFallback.Value() + primary.metrics.decodeFallback.Value(); n != 0 {
		t.Errorf("%d bodies or records fell back to encoding/json, want 0", n)
	}
}

// BenchmarkIngestDurable is one POST /v1/samples through the handler
// chain into a durable node under -fsync interval: a 512-node tick at
// 0.1 W in the shipper's layout, stamped and traced, read, scanned,
// logged, applied and acked. Each post takes the next seq, written over
// the last one's digits.
func BenchmarkIngestDurable(b *testing.B) {
	s, _ := testNode{dir: b.TempDir(), quiet: true, dur: DurabilityConfig{Policy: wal.SyncInterval}}.start(b)
	h := s.Handler()
	batch := trace.SampleBatch{AgentID: "rack-0", Seq: 1_000_000_000, Samples: make([]trace.PowerSample, 512)}
	for i := range batch.Samples {
		batch.Samples[i] = trace.PowerSample{Node: i, JobID: uint64(1 + i/16), Unix: 1_700_000_000, PowerW: float64(900+i*37%1700) / 10}
	}
	body, err := trace.AppendBatch(nil, &batch)
	if err != nil {
		b.Fatal(err)
	}
	seq := bytes.Index(body, []byte(`"seq":`)) + len(`"seq":`)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strconv.AppendUint(body[seq:seq], batch.Seq+uint64(i), 10)
		req := httptest.NewRequest(http.MethodPost, "/v1/samples", bytes.NewReader(body))
		req.Header.Set(obs.HeaderTraceID, "4f2a9c0d11e8b7a3")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("post %d: %d %s", i, rec.Code, rec.Body)
		}
	}
}
