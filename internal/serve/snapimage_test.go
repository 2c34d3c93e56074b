package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/vfs"
	"hpcpower/internal/wal"
)

// snapNode is a durable node with detectors on over dir: a 4-shard store
// with 32-point rings, the shape testdata/snap_pr14 was written with.
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

// legacyPayload is the payload versions before the binary image wrote
// for the same state: json.Marshal of the whole snapshotImage.
func legacyPayload(t testing.TB, payload []byte) []byte {
	t.Helper()
	img, legacy, err := decodeSnapshotImage(payload)
	if err != nil || legacy {
		t.Fatalf("decoding a fresh payload: legacy %v, err %v", legacy, err)
	}
	out, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoverBinaryAndLegacyAgree: the same state restored from the
// binary image and from the all-JSON image serves the same bytes, and
// the report says which one it read.
func TestRecoverBinaryAndLegacyAgree(t *testing.T) {
	src, tsSrc := snapNode(t.TempDir()).start(t)
	fillSnapServer(t, src, tsSrc.URL)
	lsn, payload, err := src.dur.snapshotOnce(src)
	if err != nil {
		t.Fatal(err)
	}
	want := stateOf(src).String()
	src.Close()
	if payload[0] == '{' || !bytes.HasPrefix(payload, []byte(snapImageMagic)) {
		t.Fatalf("snapshotOnce wrote a payload starting %q, want the %q image", payload[:8], snapImageMagic)
	}
	if bytes.Contains(payload, []byte(`"t":`)) {
		t.Fatal("the binary image still carries JSON ring points")
	}

	for _, tc := range []struct {
		name    string
		payload []byte
		legacy  bool
	}{{"binary", payload, false}, {"legacy", legacyPayload(t, payload), true}} {
		dir := t.TempDir()
		if err := wal.WriteSnapshot(dir, lsn, tc.payload); err != nil {
			t.Fatal(err)
		}
		s, ts := snapNode(dir).start(t)
		rep := s.dur.report
		if !rep.SnapshotFound || rep.SnapshotLegacy != tc.legacy || rep.SnapshotBytes != len(tc.payload) || rep.RecordsReplayed != 0 {
			t.Errorf("%s: report %+v, want a %d-byte snapshot, legacy %v, nothing replayed", tc.name, rep, len(tc.payload), tc.legacy)
		}
		if rep.SnapshotLoad <= 0 || rep.SnapshotLoad > rep.Duration {
			t.Errorf("%s: snapshot load %v of a %v recovery", tc.name, rep.SnapshotLoad, rep.Duration)
		}
		if got := s.metrics.legacySnapshots.Value(); got != int64(b2i(tc.legacy)) {
			t.Errorf("%s: legacy decode counter %d", tc.name, got)
		}
		if got := stateOf(s).String(); got != want {
			t.Errorf("%s: the restored state differs\n got %s\nwant %s", tc.name, got, want)
		}
		_, metrics := get(t, ts.URL+"/metrics")
		for _, line := range []string{
			"powserved_recovery_snapshot_bytes " + fmtUint(uint64(len(tc.payload))),
			"powserved_recovery_snapshot_legacy " + fmtUint(uint64(b2i(tc.legacy))),
		} {
			if !strings.Contains(string(metrics), line+"\n") {
				t.Errorf("%s: /metrics lacks %q", tc.name, line)
			}
		}
	}
}

// TestRecoverParentWrittenSnapshot restores testdata/snap_pr14: a data
// directory written at PR 14 — an all-JSON snapshot at LSN 41 (wrapped,
// full, partial and one-point rings, a fired alert, dedup state) and a
// WAL whose last four records lie past it — with the answers the PR 14
// server gave before it was killed (median_w and p95_w since replaced by
// what the count tables seeded from its P² estimators answer). Then the
// same store is snapshotted by this writer and restarted once more.
func TestRecoverParentWrittenSnapshot(t *testing.T) {
	restoreFixture(t, "snap_pr14", true, 41)
}

// TestRecoverVersion1Snapshot does the same for testdata/snap_v1, written
// by the last build whose binary image (version 1) carried P² estimators:
// a snapshot at LSN 59 of a 432-reading job at 0.1 W, a three-reading job
// and a flatline that fired an alert, then four WAL records past it. The
// three-reading job's median and p95 are its exact ones; the large job's
// come from a coarse table seeded from its estimators.
func TestRecoverVersion1Snapshot(t *testing.T) {
	restoreFixture(t, "snap_v1", false, 59)
}

func restoreFixture(t *testing.T, name string, legacy bool, lsn uint64) {
	fixture := filepath.Join("testdata", name)
	dir := t.TempDir()
	files, err := os.ReadDir(filepath.Join(fixture, "data"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range files {
		b, err := os.ReadFile(filepath.Join(fixture, "data", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
	if rep := s.dur.report; !rep.SnapshotFound || rep.SnapshotLegacy != legacy || rep.SnapshotLSN != lsn || rep.RecordsReplayed != 4 || rep.DecodeErrors != 0 {
		t.Errorf("report %+v, want the snapshot at lsn %d (legacy %v) and 4 records replayed", rep, lsn, legacy)
	}
	served("parent-written snapshot", s, ts.URL)
	s.Close() // final snapshot, in the current form

	s, ts = snapNode(dir).start(t)
	if rep := s.dur.report; !rep.SnapshotFound || rep.SnapshotLegacy || rep.RecordsReplayed != 0 {
		t.Errorf("second restart: report %+v, want a binary snapshot and nothing replayed", rep)
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

// TestSnapshotImageVersionError: a payload of a version this build does
// not know fails recovery by naming the version, not as bad JSON.
func TestSnapshotImageVersionError(t *testing.T) {
	dir := t.TempDir()
	payload := append([]byte(snapImageMagic), 9, 0, 0, 0, 0)
	if err := wal.WriteSnapshot(dir, 7, payload); err != nil {
		t.Fatal(err)
	}
	_, _, err := testNode{dir: dir}.tryStart(t)
	if err == nil || !strings.Contains(err.Error(), "version 9") || strings.Contains(err.Error(), "invalid character") {
		t.Fatalf("Recover error %v, want one naming version 9", err)
	}
	if _, _, err := decodeSnapshotImage([]byte("garbage")); err == nil || !strings.Contains(err.Error(), "not a snapshot image") {
		t.Fatalf("decoding garbage: %v", err)
	}
}

// TestInstallLegacyBootstrapPayload: a follower accepts the all-JSON
// payload a not yet upgraded primary serves, counts it, and ends up in
// the state the binary payload installs.
func TestInstallLegacyBootstrapPayload(t *testing.T) {
	src, tsSrc := snapNode(t.TempDir()).start(t)
	fillSnapServer(t, src, tsSrc.URL)
	lsn, payload, err := src.dur.snapshotOnce(src)
	if err != nil {
		t.Fatal(err)
	}
	want := stateOf(src).String()

	for _, tc := range []struct {
		name    string
		payload []byte
		legacy  int64
	}{{"legacy", legacyPayload(t, payload), 1}, {"binary", payload, 0}} {
		dst, tsDst := snapNode(t.TempDir()).start(t)
		// The install replaces whatever the follower held.
		if resp, _ := postJSON(t, tsDst.URL+"/v1/samples", stampedBatches(5, 1)[0]); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("pre-install ingest: %d", resp.StatusCode)
		}
		if err := dst.installReplSnapshot(lsn, tc.payload); err != nil {
			t.Fatalf("%s: install: %v", tc.name, err)
		}
		if got := stateOf(dst).String(); got != want {
			t.Errorf("%s bootstrap: the installed state differs\n got %s\nwant %s", tc.name, got, want)
		}
		if got := dst.metrics.legacySnapshots.Value(); got != tc.legacy {
			t.Errorf("%s: legacy decode counter %d, want %d", tc.name, got, tc.legacy)
		}
		// The install persisted a local snapshot, in the current format.
		_, local, found, _, err := wal.LatestSnapshot(dst.dur.cfg.Dir)
		if err != nil || !found || !bytes.HasPrefix(local, []byte(snapImageMagic)) {
			t.Errorf("%s: local snapshot after install: found %v, err %v", tc.name, found, err)
		}
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
// benchmark's recover workloads restart from: 1,024 nodes × 500
// one-minute samples at 0.1 W resolution with 5 % noise, 64 jobs, in
// default-sized rings.
func benchShapedImage(tb testing.TB) *snapshotImage {
	tb.Helper()
	const nodes, ticks = 1024, 500
	store := tsdb.New(tsdb.DefaultConfig())
	dedup := tsdb.NewDeduper(tsdb.DedupConfig{})
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
		dedup.Mark("agent-0", uint64(tick+1))
	}
	return &snapshotImage{Store: store.ExportState(), Dedup: dedup.ExportState(), AppliedLSN: ticks}
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
	if img.Store.Nodes == nil {
		t.Fatal("encoding detached the caller's node list")
	}

	var got *snapshotImage
	decode := allocated(func() { got, _, err = decodeSnapshotImage(payload) })
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(img)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Error("decoded image marshals differently from the encoded one")
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

// FuzzSnapshotDecode: arbitrary payloads never panic the decoder or the
// restore behind it, never make it allocate beyond a fixed multiple of
// their length (the multiple is encoding/json's, for a meta section of
// nothing but `{}` jobs), and whatever decodes keeps the invariants the
// store relies on.
func FuzzSnapshotDecode(f *testing.F) {
	store := tsdb.New(tsdb.Config{Shards: 4, RingLen: 8})
	dedup := tsdb.NewDeduper(tsdb.DedupConfig{})
	for i, b := range stampedBatches(3, 12) {
		if err := store.Append(b.Samples); err != nil {
			f.Fatal(err)
		}
		dedup.Mark("a1", uint64(i+1))
	}
	img := &snapshotImage{Store: store.ExportState(), Dedup: dedup.ExportState(), AppliedLSN: 12, Extras: []uint64{14}}
	valid, err := encodeSnapshotImage(img)
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := json.Marshal(img)
	if err != nil {
		f.Fatal(err)
	}
	empty, err := encodeSnapshotImage(&snapshotImage{Store: tsdb.New(tsdb.Config{Shards: 4, RingLen: 8}).ExportState()})
	if err != nil {
		f.Fatal(err)
	}
	_, v1, found, _, err := wal.LatestSnapshot(filepath.Join("testdata", "snap_v1", "data"))
	if err != nil || !found {
		f.Fatalf("version-1 fixture: found %v, err %v", found, err)
	}
	// The last table's last count, one too high: the counts no longer add
	// up to the job's samples.
	badTable := append([]byte(nil), valid...)
	badTable[len(badTable)-1]++
	f.Add(valid)
	f.Add(legacy)
	f.Add(empty)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add([]byte(snapImageMagic + "\x03\x00\x00\x00\x00"))
	// A node count and a point count far beyond the bytes behind them, as
	// the nodes section of the empty image (which ends in the section's
	// length, its node count 0 and its table count 0).
	withNodes := func(nodes ...byte) []byte {
		out := append([]byte(nil), empty[:len(empty)-10]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(nodes)))
		return append(append(out, nodes...), 0)
	}
	f.Add(withNodes(0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add(withNodes(1, 0, 5, 0, 0, 0, 0xff, 0xff, 0xff, 0x07, 0))
	f.Add(v1)
	f.Add(badTable)

	f.Fuzz(func(t *testing.T, data []byte) {
		var img *snapshotImage
		var err error
		if alloc := allocated(func() { img, _, err = decodeSnapshotImage(data) }); alloc > 1<<20+4096*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil || img.Store == nil {
			return
		}
		prev := -1
		for _, n := range img.Store.Nodes {
			if !bytes.HasPrefix(data, []byte("{")) && (n.Node <= prev || len(n.Points) > img.Store.RingLen) {
				t.Fatalf("binary image decoded node %d after %d with %d points, ring length %d", n.Node, prev, len(n.Points), img.Store.RingLen)
			}
			prev = n.Node
		}
		for _, j := range img.Store.Jobs {
			if data[len(snapImageMagic)] != snapImageVersion || data[0] == '{' {
				break
			}
			var sum int64
			for _, c := range j.Table.Counts {
				sum += int64(c)
			}
			if sum != j.Acc.N || len(j.Table.Counts) > 2048 {
				t.Fatalf("version-2 image decoded job %d with %d samples and a table of %d buckets counting %d", j.ID, j.Acc.N, len(j.Table.Counts), sum)
			}
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

// BenchmarkSnapshotDecode is the decode share of a clean restart, for
// the current payload and for the all-JSON one it replaced.
func BenchmarkSnapshotDecode(b *testing.B) {
	_, payload := benchmarkPayload(b)
	for _, tc := range []struct {
		name    string
		payload []byte
	}{{"binary", payload}, {"legacy-json", legacyPayload(b, payload)}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(tc.payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeSnapshotImage(tc.payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoverClean is a whole clean restart of the benchmark's
// store — NewDurable + Recover over a data directory that holds one
// snapshot and an empty WAL — per payload format.
func BenchmarkRecoverClean(b *testing.B) {
	_, payload := benchmarkPayload(b)
	for _, tc := range []struct {
		name    string
		payload []byte
	}{{"binary", payload}, {"legacy-json", legacyPayload(b, payload)}} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			if err := wal.WriteSnapshot(dir, 500, tc.payload); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(tc.payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewDurable(tsdb.New(tsdb.DefaultConfig()), nil, DefaultConfig(), DurabilityConfig{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Recover(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				crash(b, s, httptest.NewServer(s.Handler()))
				b.StartTimer()
			}
		})
	}
}
