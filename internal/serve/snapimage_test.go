package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/vfs"
	"hpcpower/internal/wal"
)

// snapNode is a durable node with detectors on over dir: a 4-shard store
// with 32-point rings, the shape the testdata/snap_* fixtures were
// written with.
func snapNode(dir string) testNode { return testNode{dir: dir, ringLen: 32, anomaly: true} }

// fillSnapServer ingests a flatlining job that wraps its ring and fires
// an alert, random late samples over eight nodes, and a one-point node.
func fillSnapServer(t testing.TB, s *Server, url string) {
	t.Helper()
	total := int64(0)
	send := func(b trace.SampleBatch) {
		resp, body := postJSON(t, url+"/v1/samples", b)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest: %d %s", resp.StatusCode, body)
		}
		total += int64(len(b.Samples))
		waitIngested(t, s, total)
	}
	for _, b := range flatBatches("fl", 42, 3, 1_700_000_000, 45, 200) {
		send(b)
	}
	for _, b := range stampedBatches(21, 30) {
		send(b)
	}
	send(trace.SampleBatch{AgentID: "one", Seq: 1, Samples: []trace.PowerSample{{Node: 9, Unix: 1_700_000_007}}})
	waitAnomalyFires(t, url, 42, 1)
}

// restoreFixture starts a node over the data directory of
// testdata/<name>, which holds a snapshot at lsn and four WAL records
// past it, and checks that it serves the answers pinned beside it; then
// restarts it once more from the snapshot this build writes at Close.
// snap_v3 and snap_v4 hold the same state and share their answers:
// those the version-3 writer gave, but for the means, spreads and their
// ratios, which exact moments moved by at most 1.6e-13 of themselves.
func restoreFixture(t *testing.T, name string, lsn uint64) {
	fixture := filepath.Join("testdata", name)
	dir := copyFixture(t, filepath.Join(fixture, "data"))
	// What the server that wrote the directory answered: the summary, the
	// job list and every job's power, the alert timeline, every node's ring.
	served := func(what string, s *Server, url string) {
		_, anomalies := get(t, url+"/v1/anomalies")
		var series strings.Builder
		for _, n := range s.store.NodeIDs() {
			_, body := get(t, url+"/v1/nodes/"+fmtUint(uint64(n))+"/series")
			series.Write(body)
		}
		analytics := analyticsDump(t, url)
		summary, _, _ := strings.Cut(analytics, "\n")
		for name, got := range map[string]string{"summary.json": summary + "\n", "analytics.txt": analytics,
			"anomalies.json": string(anomalies), "series.txt": series.String()} {
			if want, err := os.ReadFile(filepath.Join(fixture, name)); err != nil || got != string(want) {
				t.Errorf("%s: %s differs (%v):\n got %s\nwant %s", what, name, err, got, want)
			}
		}
	}

	s, ts := snapNode(dir).start(t)
	if rep := s.dur.report; !rep.SnapshotFound || rep.SnapshotLSN != lsn || rep.RecordsReplayed != 4 || rep.DecodeErrors != 0 {
		t.Errorf("report %+v, want the snapshot at lsn %d and 4 records replayed", rep, lsn)
	}
	served("parent-written snapshot", s, ts.URL)
	s.Close() // final snapshot, in the current form
	_, payload, _, _, err := wal.LatestSnapshot(dir)
	if err != nil || !bytes.HasPrefix(payload, append([]byte(snapImageMagic), snapImageVersion)) {
		t.Fatalf("Close wrote a payload starting %q (err %v), want a version-%d image", payload[:min(len(payload), 8)], err, snapImageVersion)
	}

	s, ts = snapNode(dir).start(t)
	if rep := s.dur.report; !rep.SnapshotFound || rep.RecordsReplayed != 0 || rep.SnapshotBytes != len(payload) || rep.SnapshotLoad <= 0 || rep.SnapshotLoad > rep.Duration {
		t.Errorf("second restart: report %+v, want the %d-byte snapshot loaded within the recovery and nothing replayed", rep, len(payload))
	}
	if _, metrics := get(t, ts.URL+"/metrics"); !strings.Contains(string(metrics), "powserved_recovery_snapshot_bytes "+fmtUint(uint64(len(payload)))+"\n") {
		t.Errorf("/metrics lacks powserved_recovery_snapshot_bytes %d", len(payload))
	}
	served("re-written snapshot", s, ts.URL)
}

// TestRecoverDifferentRingLen: a snapshot restores into shorter and
// longer rings, keeping the newest points that fit.
func TestRecoverDifferentRingLen(t *testing.T) {
	dir := t.TempDir()
	src, tsSrc := snapNode(dir).start(t)
	fillSnapServer(t, src, tsSrc.URL)
	want := src.store.NodeSeries(3, 0, 0)
	src.Close()
	for _, ringLen := range []int{8, 32, 100} {
		s, _ := testNode{dir: dir, ringLen: ringLen}.start(t)
		got := s.store.NodeSeries(3, 0, 0)
		keep := min(ringLen, len(want))
		if len(got) != keep {
			t.Fatalf("ring length %d: node 3 holds %d points, want %d", ringLen, len(got), keep)
		}
		for i, p := range want[len(want)-keep:] {
			if got[i] != p {
				t.Fatalf("ring length %d: point %d is %+v, want %+v", ringLen, i, got[i], p)
			}
		}
		// Close snapshots what this round kept, so the next round grows
		// a ring from it where this one shrank one.
		s.Close()
		want = want[len(want)-keep:]
	}
}

// TestInstallBootstrapPayload: a follower installs a primary's snapshot
// payload over whatever it held, ends up in the primary's state and
// persists a local snapshot of it; the all-JSON payload older primaries
// served is refused before anything is touched.
func TestInstallBootstrapPayload(t *testing.T) {
	src, tsSrc := snapNode(t.TempDir()).start(t)
	fillSnapServer(t, src, tsSrc.URL)
	lsn, payload, err := src.dur.snapshotOnce(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := decodeSnapshotImage(payload)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}

	dst, tsDst := snapNode(t.TempDir()).start(t)
	if resp, _ := postJSON(t, tsDst.URL+"/v1/samples", stampedBatches(5, 1)[0]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-install ingest: %d", resp.StatusCode)
	}
	held := stateOf(dst).String()
	if err := dst.installReplSnapshot(lsn, js); err == nil || !strings.Contains(err.Error(), "this build reads versions 3 and 4") || stateOf(dst).String() != held {
		t.Fatalf("installing a JSON payload: %v", err)
	}
	if err := dst.installReplSnapshot(lsn, payload); err != nil {
		t.Fatal(err)
	}
	if got, want := stateOf(dst).String(), stateOf(src).String(); got != want {
		t.Errorf("the installed state differs\n got %s\nwant %s", got, want)
	}
	_, local, found, _, err := wal.LatestSnapshot(dst.dur.cfg.Dir)
	if err != nil || !found || !bytes.HasPrefix(local, []byte(snapImageMagic)) {
		t.Errorf("local snapshot after install: found %v, err %v", found, err)
	}
}

// TestReplSnapshotServedWithoutReadingBack: GET /v1/repl/snapshot
// answers with the bytes the snapshot writer produced. Every read of a
// snapshot file fails here, so an implementation that wrote the file
// and read it back through the server's filesystem cannot answer.
func TestReplSnapshotServedWithoutReadingBack(t *testing.T) {
	ffs := vfs.NewFault(vfs.OS, vfs.FaultConfig{})
	n := snapNode(t.TempDir())
	n.dur.FS = ffs
	s, ts := n.start(t)
	fillSnapServer(t, s, ts.URL)
	ffs.Configure(func(c *vfs.FaultConfig) {
		c.ReadErrProb = 1
		c.PathSubstring = "snap-"
	})
	resp, body := get(t, ts.URL+"/v1/repl/snapshot?follower=f1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type %q", ct)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
	}
	if got, want := resp.Header.Get(HeaderReplSnapshotLSN), fmtUint(s.dur.snapLSN.Load()); got != want {
		t.Errorf("%s %q, want %s", HeaderReplSnapshotLSN, got, want)
	}
	// What was served is what is on disk.
	ffs.Configure(func(c *vfs.FaultConfig) { c.ReadErrProb = 0 })
	_, onDisk, found, _, err := wal.LatestSnapshotFS(ffs, s.dur.cfg.Dir)
	if err != nil || !found || !bytes.Equal(onDisk, body) {
		t.Fatalf("served %d bytes, the snapshot file holds %d (found %v, err %v)", len(body), len(onDisk), found, err)
	}
	if got := ffs.Stats().ReadErrors; got != 0 {
		t.Errorf("%d snapshot reads were attempted while serving", got)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "powserved_snapshot_last_bytes "+fmtUint(uint64(len(body)))+"\n") {
		t.Errorf("/metrics lacks powserved_snapshot_last_bytes %d", len(body))
	}
}

// allocated is the heap fn allocates, in bytes (whole process: call it
// with nothing else running).
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// benchShapedImage is a snapshot image of the store the end-to-end
// benchmark's recover-clean workload restarts from: 1,024 nodes × 500
// one-minute samples at 0.1 W resolution with 5 % noise, 64 jobs, in
// default-sized rings, shipped by two agents in turn into a node with the
// default detectors on.
func benchShapedImage(tb testing.TB) *snapshotImage {
	tb.Helper()
	const nodes, ticks = 1024, 500
	store := tsdb.New(tsdb.DefaultConfig())
	dedup := tsdb.NewDeduper(tsdb.DedupConfig{})
	engine := anomaly.NewEngine(anomaly.Config{Lookup: store.JobFingerprint})
	src := rng.New(42)
	level := make([]float64, nodes)
	for n := range level {
		level[n] = 90 + 170*src.Float64()
	}
	batch := make([]trace.PowerSample, nodes)
	for tick := int64(0); tick < ticks; tick++ {
		for n := range batch {
			w := math.Round(level[n]*(1+0.05*src.Norm())*10) / 10
			batch[n] = trace.PowerSample{Node: n, JobID: uint64(n/16 + 1), Unix: 1_700_000_040 + tick*60, PowerW: math.Max(w, 0)}
		}
		if err := store.Append(batch); err != nil {
			tb.Fatal(err)
		}
		engine.ObserveBatch(batch, "")
		dedup.Mark(fmt.Sprintf("agent-%d", tick%2), uint64(tick/2+1))
	}
	return &snapshotImage{Store: store.ExportState(), Dedup: dedup.ExportState(), Anomaly: engine.ExportState(), AppliedLSN: ticks}
}

// TestSnapshotImageSizeAndAllocs pins what the format is for: at most
// 8.8 bytes a point on the benchmark's store (4.5 MB of the 13.9 MB the
// JSON image took), a decode that allocates little more than the rings
// it fills, and an install that adopts them instead of allocating its
// own.
func TestSnapshotImageSizeAndAllocs(t *testing.T) {
	img := benchShapedImage(t)
	points := 0
	for _, n := range img.Store.Nodes {
		points += len(n.Points)
	}
	payload, err := encodeSnapshotImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if perPoint := float64(len(payload)) / float64(points); perPoint > 8.8 {
		t.Errorf("payload is %d bytes for %d points: %.2f bytes a point, want at most 8.8", len(payload), points, perPoint)
	}

	var got *snapshotImage
	decode := allocated(func() { got, err = decodeSnapshotImage(payload) })
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := encodeSnapshotImage(got); !bytes.Equal(again, payload) {
		t.Error("the decoded image encodes differently from the one it was decoded from")
	}
	ringBytes := uint64(len(img.Store.Nodes) * img.Store.RingLen * 16)
	if decode > ringBytes+ringBytes/8 {
		t.Errorf("decode allocated %d bytes to fill %d bytes of rings", decode, ringBytes)
	}
	store := tsdb.New(tsdb.DefaultConfig())
	install := allocated(func() { err = store.RestoreState(got.Store) })
	if err != nil {
		t.Fatal(err)
	}
	if install > ringBytes/8 {
		t.Errorf("restore allocated %d bytes on top of the %d the decoder handed it", install, ringBytes)
	}
}

// fillDistinct sets every exported field v reaches to a non-zero value
// that, for the wider types, no other field holds: numbers count up
// (signed ones below zero), strings spell the count, bools are true,
// slices hold two elements and pointers point at a filled value.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	*next++
	switch n := *next; v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), next)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillDistinct(t, v.Field(i), next)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprint("s", n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.OverflowInt(-n) {
			n = n%100 + 1
		}
		v.SetInt(-n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.OverflowUint(uint64(n)) {
			n = n%100 + 1
		}
		v.SetUint(uint64(n))
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	default:
		t.Fatalf("fillDistinct: a %s field", v.Type())
	}
}

// TestSnapshotMetaCarriesEveryField: JSON carried a new field of the
// meta for free; the binary codec writes each by hand. Every field of
// every meta type, set to a value of its own, must come back.
func TestSnapshotMetaCarriesEveryField(t *testing.T) {
	want := &snapshotImage{}
	var n int64
	fillDistinct(t, reflect.ValueOf(want).Elem(), &n)
	want.Store.Nodes = nil // the rings, tsdb's own section
	payload, err := encodeSnapshotImage(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshotImage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got)
		t.Fatalf("a round trip lost a field:\n got %s\nwant %s", b, a)
	}

	// And so does an image a store wrote, infinities and all.
	rich := richImage(t)
	payload, err = encodeSnapshotImage(rich)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = decodeSnapshotImage(payload); err != nil {
		t.Fatal(err)
	}
	if again, _ := encodeSnapshotImage(got); !bytes.Equal(again, payload) {
		t.Fatal("a store's image encodes differently once decoded")
	}
	if err := tsdb.New(tsdb.Config{Shards: 4, RingLen: 8}).RestoreState(got.Store); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDecodeErrorOrder: with the jobs decoding beside the rings,
// the error is still the first in section order.
func TestSnapshotDecodeErrorOrder(t *testing.T) {
	payload, err := encodeSnapshotImage(richImage(t))
	if err != nil {
		t.Fatal(err)
	}
	headLen := binary.LittleEndian.Uint32(payload[5:])
	jobsAt := 5 + 4 + int(headLen)
	cut := func(at int, b byte) []byte {
		out := append([]byte(nil), payload[:len(payload)-1]...) // the rings lose their last byte
		out[at] = b
		return out
	}
	for name, tc := range map[string]struct {
		in   []byte
		want string
	}{
		"head":  {cut(9, 0x80), "snapshot image head: "},        // AppliedLSN runs into the fields after it
		"jobs":  {cut(jobsAt+4, 0xff), "snapshot image jobs: "}, // the job count claims more than is left
		"nodes": {cut(9, payload[9]), "tsdb: nodes section"},
	} {
		if _, err := decodeSnapshotImage(tc.in); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error starting %q", name, err, tc.want)
		}
	}
}

// TestTableCountsZeroRuns: a table's zeros go as runs, so a job whose
// few readings lie far apart costs a few bytes, not a byte a bucket;
// runs at either end come back, and one past the table is refused.
func TestTableCountsZeroRuns(t *testing.T) {
	sparse := make([]uint32, tsdb.MaxTableBuckets)
	sparse[0], sparse[1000], sparse[2000] = 2, 1, 3
	for _, counts := range [][]uint32{sparse, {0, 0, 3, 0, 7, 1, 0}, {4, 5, 6}, {0}} {
		w := metaCodec{}
		w.counts(&counts)
		if len(w.b) > 16 {
			t.Errorf("%d counts took %d bytes", len(counts), len(w.b))
		}
		r := metaCodec{b: w.b, dec: true}
		var got []uint32
		if r.counts(&got); r.done("counts") != nil || !slices.Equal(got, counts) {
			t.Errorf("%v came back as %v (%v)", counts, got, r.done("counts"))
		}
	}
	for name, in := range map[string][]byte{
		"run past the end": {3, 5, 0, 2},
		"too many buckets": binary.AppendUvarint(nil, tsdb.MaxTableBuckets+1),
		"cut short":        {3, 0},
	} {
		r := metaCodec{b: in, dec: true}
		var got []uint32
		if r.counts(&got); r.done("counts") == nil {
			t.Errorf("%s: decoded %v", name, got)
		}
	}
}

// TestHugeReadingSurvivesRestart: a reading of 1e300 W is valid; it has
// no exact code, so its job's moments overflow on it, and once its
// minute closes the fingerprint trend's variance goes +Inf. Close must
// still write the snapshot, and a restart must take it with nothing to
// replay and every bit of the store as it was.
func TestHugeReadingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, ts := snapNode(dir).start(t)
	var batch trace.SampleBatch
	for i, w := range []float64{120, 1e300, 0, 5} {
		batch.Samples = append(batch.Samples, trace.PowerSample{Node: 1, JobID: 7, Unix: 1_700_000_000 + 60*int64(i), PowerW: w})
	}
	if resp, body := postJSON(t, ts.URL+"/v1/samples", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	waitIngested(t, s, 4)
	want := s.store.ExportState()
	if j := want.Jobs[0]; !j.Moments.Over || !math.IsInf(j.Trend.EWVar, 1) {
		t.Fatalf("job 7's moments overflowed: %v; its trend's variance is %v, want +Inf", j.Moments.Over, j.Trend.EWVar)
	}
	s.Close()

	s, _ = snapNode(dir).start(t)
	if rep := s.dur.report; !rep.SnapshotFound || rep.SnapshotLSN != 1 || rep.RecordsReplayed != 0 {
		t.Fatalf("report %+v, want the snapshot at lsn 1 and nothing replayed", rep)
	}
	a, _ := encodeSnapshotImage(&snapshotImage{Store: want})
	b, _ := encodeSnapshotImage(&snapshotImage{Store: s.store.ExportState()})
	if !bytes.Equal(a, b) {
		t.Error("the restarted store differs from the one that wrote the snapshot")
	}
}

// richImage is a small image with every section populated: alert
// machines with traces, events, two dedup agents, LSNs above the
// watermark, and a job whose sums overflowed to +Inf.
func richImage(tb testing.TB) *snapshotImage {
	tb.Helper()
	store := tsdb.New(tsdb.Config{Shards: 4, RingLen: 8})
	dedup := tsdb.NewDeduper(tsdb.DedupConfig{})
	engine := anomaly.NewEngine(anomaly.Config{Lookup: store.JobFingerprint})
	batches := append(flatBatches("fl", 42, 3, 1_700_000_000, 45, 200), stampedBatches(3, 12)...)
	batches = append(batches, trace.SampleBatch{AgentID: "huge", Seq: 1, Samples: []trace.PowerSample{{Node: 5, JobID: 77, Unix: 1_700_000_000, PowerW: 1e300}}})
	for i, b := range batches {
		if err := store.Append(b.Samples); err != nil {
			tb.Fatal(err)
		}
		engine.ObserveBatch(b.Samples, fmt.Sprintf("trace-%d", i))
		dedup.Mark(b.AgentID, b.Seq)
	}
	img := &snapshotImage{Store: store.ExportState(), Dedup: dedup.ExportState(), Anomaly: engine.ExportState(),
		AppliedLSN: uint64(len(batches)), Extras: []uint64{uint64(len(batches)) + 2}, ReplLSN: 9, ReplExtras: []uint64{11, 12}}
	if len(img.Dedup.Agents) < 2 || len(img.Anomaly.Events) == 0 || img.Anomaly.Events[0].Trace == "" || len(img.Anomaly.Jobs) == 0 {
		tb.Fatalf("the rich image lacks a section: %d agents, alert state %+v", len(img.Dedup.Agents), img.Anomaly)
	}
	return img
}

// FuzzSnapshotDecode: arbitrary payloads never panic the decoder or the
// restore behind it, never make it allocate beyond a fixed multiple of
// their length, and whatever decodes keeps the invariants the store
// relies on.
func FuzzSnapshotDecode(f *testing.F) {
	img := richImage(f)
	valid, err := encodeSnapshotImage(img)
	if err != nil {
		f.Fatal(err)
	}
	empty, err := encodeSnapshotImage(&snapshotImage{Store: tsdb.New(tsdb.Config{Shards: 4, RingLen: 8}).ExportState()})
	if err != nil {
		f.Fatal(err)
	}
	_, v3, found, _, err := wal.LatestSnapshot(filepath.Join("testdata", "snap_v3", "data"))
	if err != nil || !found {
		f.Fatalf("version-3 fixture: found %v, err %v", found, err)
	}
	// What builds before the binary image wrote, which must be refused.
	fixture, err := decodeSnapshotImage(v3)
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := json.Marshal(fixture)
	if err != nil {
		f.Fatal(err)
	}
	// A table count one too high: the counts no longer add up to the
	// job's samples.
	img.Store.Jobs[0].Table.Counts[0]++
	badTable, err := encodeSnapshotImage(img)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(legacy)
	f.Add(empty)
	f.Add(v3)
	f.Add(badTable)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add([]byte(snapImageMagic + "\x05\x00\x00\x00\x00"))
	f.Add([]byte(snapImageMagic + "\x02\x00\x00\x00\x00")) // retired
	// A node count and a point count far beyond the bytes behind them, in
	// place of the empty image's nodes section (its node count 0).
	withNodes := func(nodes ...byte) []byte {
		return append(append([]byte(nil), empty[:len(empty)-1]...), nodes...)
	}
	f.Add(withNodes(0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add(withNodes(1, 0, 5, 0, 0, 0, 0xff, 0xff, 0xff, 0x07, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		var img *snapshotImage
		var err error
		if alloc := allocated(func() { img, err = decodeSnapshotImage(data) }); alloc > 1<<20+4096*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte(snapImageMagic)) {
			t.Fatalf("decoded a payload starting %q", data[:min(len(data), 8)])
		}
		prev := -1
		for _, n := range img.Store.Nodes {
			if n.Node <= prev || len(n.Points) > img.Store.RingLen {
				t.Fatalf("binary image decoded node %d after %d with %d points, ring length %d", n.Node, prev, len(n.Points), img.Store.RingLen)
			}
			prev = n.Node
		}
		// Restore either takes the state or refuses it; it must not panic.
		fresh := tsdb.New(tsdb.Config{Shards: 4, RingLen: 8})
		if err := fresh.RestoreState(img.Store); err == nil && fresh.Ingested() != img.Store.Ingested {
			t.Fatalf("restored %d ingested, image says %d", fresh.Ingested(), img.Store.Ingested)
		}
	})
}

func benchmarkPayload(b *testing.B) (*snapshotImage, []byte) {
	img := benchShapedImage(b)
	payload, err := encodeSnapshotImage(img)
	if err != nil {
		b.Fatal(err)
	}
	return img, payload
}

// BenchmarkSnapshotEncode is the CPU a snapshot costs after the state
// has been captured; bytes are the payload's.
func BenchmarkSnapshotEncode(b *testing.B) {
	img, payload := benchmarkPayload(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeSnapshotImage(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotDecode is the decode share of a clean restart.
func BenchmarkSnapshotDecode(b *testing.B) {
	_, payload := benchmarkPayload(b)
	b.Run("binary", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeSnapshotImage(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecoverClean is a whole restart of the benchmark's store:
// NewDurable + Recover over a data directory that holds one snapshot and,
// like the end-to-end recover-clean image, an active WAL segment of 300
// ≈ 24 KB records that continue the store in time. The snapshot covers
// all of them ("clean", a clean shutdown: replay reads nothing) or half
// ("half", a crash after a snapshot: replay seeks past the covered half
// and applies 150 records).
func BenchmarkRecoverClean(b *testing.B) {
	img := benchShapedImage(b)
	const records = 300
	for _, bc := range []struct {
		name    string
		covered uint64
	}{{"clean", records}, {"half", records / 2}} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			writeFleetWAL(b, dir, records, 500) // the store's ticks end at 499
			img.AppliedLSN = bc.covered
			payload, err := encodeSnapshotImage(img)
			if err != nil {
				b.Fatal(err)
			}
			if err := wal.WriteSnapshot(dir, bc.covered, payload); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewDurable(tsdb.New(tsdb.DefaultConfig()), nil, DefaultConfig(), DurabilityConfig{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := s.Recover()
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if rep.RecordsReplayed != int64(records-bc.covered) || rep.DecodeErrors != 0 {
					b.Fatalf("replayed %d records with %d decode errors, want %d and 0", rep.RecordsReplayed, rep.DecodeErrors, records-bc.covered)
				}
				crash(b, s, httptest.NewServer(s.Handler()))
				b.StartTimer()
			}
		})
	}
}

// TestRecoverLogsSkippedSnapshots: newer snapshot files this build
// cannot read — another version, a CRC mismatch, a torn header — sit
// beside the good one. Recover falls back to the good one, counts the
// three, and logs one warning for each that names the file and why.
func TestRecoverLogsSkippedSnapshots(t *testing.T) {
	dir := copyFixture(t, filepath.Join("testdata", "snap_v4", "data"))
	good := filepath.Join(dir, "snap-00000000000000000024.snap")
	skipped := map[string]string{
		"snap-00000000000000000099.snap": "snapshot file version 2",
		"snap-00000000000000000098.snap": "crc mismatch",
		"snap-00000000000000000097.snap": "bad snapshot header",
	}
	writeVersioned(t, good, filepath.Join(dir, "snap-00000000000000000099.snap"), 6, '2')
	writeVersioned(t, good, filepath.Join(dir, "snap-00000000000000000098.snap"), 40, 0xff)
	if err := os.WriteFile(filepath.Join(dir, "snap-00000000000000000097.snap"), []byte("PWRSNP1\n\x61"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	node := snapNode(dir)
	node.cfg.Logger = slog.New(slog.NewTextHandler(&logged, nil))
	s, ts := node.start(t)
	if rep := s.dur.report; !rep.SnapshotFound || rep.SnapshotLSN != 24 || rep.SnapshotsSkipped != len(skipped) {
		t.Errorf("report %+v, want the snapshot at lsn 24 past %d skipped", rep, len(skipped))
	}
	if _, metrics := get(t, ts.URL+"/metrics"); !strings.Contains(string(metrics), "\npowserved_recovery_snapshots_skipped 3\n") {
		t.Errorf("/metrics lacks powserved_recovery_snapshots_skipped 3")
	}
	var warns []string
	for _, line := range strings.Split(logged.String(), "\n") {
		if strings.Contains(line, "level=WARN") {
			warns = append(warns, line)
		}
	}
	if len(warns) != len(skipped) {
		t.Fatalf("%d warnings, want one per skipped file:\n%s", len(warns), logged.String())
	}
	for name, reason := range skipped {
		n := 0
		for _, w := range warns {
			if strings.Contains(w, "file="+name) && strings.Contains(w, reason) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d warnings name %s and %q:\n%s", n, name, reason, logged.String())
		}
	}
}
