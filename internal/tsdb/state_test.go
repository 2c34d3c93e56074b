package tsdb

import (
	"encoding/json"
	"testing"

	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
)

// randomBatches synthesizes nBatches idempotently-stamped ingest batches
// over a small cluster, with enough job/node overlap to exercise every
// piece of streaming state (rings, shard accs, quantile tables — coarse,
// since the readings are not on the 0.1 W grid — and open minutes).
func randomBatches(src *rng.Source, nBatches int) []trace.SampleBatch {
	batches := make([]trace.SampleBatch, nBatches)
	for b := range batches {
		n := int(src.Uint64()%6) + 1
		samples := make([]trace.PowerSample, n)
		for i := range samples {
			samples[i] = trace.PowerSample{
				Node:   int(src.Uint64() % 12),
				JobID:  src.Uint64() % 5, // 0 = idle is exercised too
				Unix:   1_700_000_000 + int64(src.Uint64()%3600),
				PowerW: 80 + 350*src.Float64(),
			}
		}
		batches[b] = trace.SampleBatch{AgentID: "agent-a", Seq: uint64(b + 1), Samples: samples}
	}
	return batches
}

// applyThroughDedup is the ingest path under test: mark the delivery
// stamp, drop duplicates, append the rest.
func applyThroughDedup(t *testing.T, s *Store, d *Deduper, b trace.SampleBatch) {
	t.Helper()
	if dup, _ := d.Mark(b.AgentID, b.Seq); dup {
		return
	}
	if err := s.Append(b.Samples); err != nil {
		t.Fatalf("append seq %d: %v", b.Seq, err)
	}
}

// analyticsImage serializes everything powserved serves — the summary and
// every job's characterization — for byte-identical comparison.
func analyticsImage(t *testing.T, s *Store) []byte {
	t.Helper()
	var out []byte
	sum, err := json.Marshal(s.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, sum...)
	for _, id := range s.Jobs() {
		js, ok := s.JobPower(id)
		if !ok {
			t.Fatalf("job %d listed but not queryable", id)
		}
		buf, err := json.Marshal(js)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, '\n')
		out = append(out, buf...)
	}
	return out
}

// TestStoreStateRoundTrip: export → JSON → restore must reproduce the
// analytics and the retained node series exactly.
func TestStoreStateRoundTrip(t *testing.T) {
	src := rng.New(42)
	cfg := Config{Shards: 4, RingLen: 64}
	s := New(cfg)
	for _, b := range randomBatches(src, 40) {
		if err := s.Append(b.Samples); err != nil {
			t.Fatal(err)
		}
	}

	buf, err := json.Marshal(s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st StoreState
	if err := json.Unmarshal(buf, &st); err != nil {
		t.Fatal(err)
	}
	r := New(cfg)
	if err := r.RestoreState(&st); err != nil {
		t.Fatal(err)
	}

	if got, want := analyticsImage(t, r), analyticsImage(t, s); string(got) != string(want) {
		t.Fatalf("restored analytics differ:\n got %s\nwant %s", got, want)
	}
	if r.Ingested() != s.Ingested() {
		t.Fatalf("ingested %d != %d", r.Ingested(), s.Ingested())
	}
	for node := 0; node < 12; node++ {
		g, _ := json.Marshal(r.NodeSeries(node, 0, 0))
		w, _ := json.Marshal(s.NodeSeries(node, 0, 0))
		if string(g) != string(w) {
			t.Fatalf("node %d series differ:\n got %s\nwant %s", node, g, w)
		}
	}

	// A second export of the restored store must serialize identically —
	// the canonical ordering really is canonical.
	buf2, err := json.Marshal(r.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if string(buf2) != string(buf) {
		t.Fatal("re-export of restored store is not byte-identical")
	}
}

// TestSnapshotReplaySuffixProperty is the recovery correctness property:
// take a snapshot after k of n applied batches, restore it into a fresh
// store, then replay a suffix that overlaps the snapshot point (as WAL
// replay after a crash does — some records land before the snapshot LSN
// gate, some after, and redeliveries repeat mid-stream). The recovered
// analytics must be byte-identical to a run that never snapshotted.
func TestSnapshotReplaySuffixProperty(t *testing.T) {
	src := rng.New(7)
	cfg := Config{Shards: 4, RingLen: 128}
	dcfg := DedupConfig{Window: 128, MaxAgents: 16}

	for trial := 0; trial < 25; trial++ {
		n := int(src.Uint64()%60) + 5
		batches := randomBatches(src, n)

		// Control: apply everything once, no snapshot, with a few random
		// redeliveries interleaved (dedup must absorb them identically).
		control := New(cfg)
		controlDedup := NewDeduper(dcfg)
		for i, b := range batches {
			applyThroughDedup(t, control, controlDedup, b)
			if src.Uint64()%4 == 0 && i > 0 {
				dup := batches[int(src.Uint64()%uint64(i))]
				dup.Redelivery = true
				applyThroughDedup(t, control, controlDedup, dup)
			}
		}

		// Crash run: apply k batches, snapshot, restore, replay a suffix
		// starting at j ≤ k+1 (overlap with already-applied batches).
		k := int(src.Uint64() % uint64(n))
		crash := New(cfg)
		crashDedup := NewDeduper(dcfg)
		for _, b := range batches[:k] {
			applyThroughDedup(t, crash, crashDedup, b)
		}
		snap, err := json.Marshal(struct {
			Store *StoreState   `json:"store"`
			Dedup *DeduperState `json:"dedup"`
		}{crash.ExportState(), crashDedup.ExportState()})
		if err != nil {
			t.Fatal(err)
		}

		var img struct {
			Store *StoreState   `json:"store"`
			Dedup *DeduperState `json:"dedup"`
		}
		if err := json.Unmarshal(snap, &img); err != nil {
			t.Fatal(err)
		}
		recovered := New(cfg)
		recoveredDedup := NewDeduper(dcfg)
		if err := recovered.RestoreState(img.Store); err != nil {
			t.Fatal(err)
		}
		if err := recoveredDedup.InstallState(img.Dedup); err != nil {
			t.Fatal(err)
		}

		j := 0
		if k > 0 {
			j = int(src.Uint64() % uint64(k+1))
		}
		for i, b := range batches[j:] {
			applyThroughDedup(t, recovered, recoveredDedup, b)
			if src.Uint64()%4 == 0 && j+i > 0 {
				dup := batches[int(src.Uint64()%uint64(j+i))]
				dup.Redelivery = true
				applyThroughDedup(t, recovered, recoveredDedup, dup)
			}
		}

		got, want := analyticsImage(t, recovered), analyticsImage(t, control)
		if string(got) != string(want) {
			t.Fatalf("trial %d (n=%d k=%d j=%d): recovered analytics diverge\n got %s\nwant %s",
				trial, n, k, j, got, want)
		}
	}
}

func TestRestoreStateValidation(t *testing.T) {
	cfg := Config{Shards: 4, RingLen: 32}
	s := New(cfg)
	if err := s.Append([]trace.PowerSample{{Node: 1, JobID: 1, Unix: 100, PowerW: 50}}); err != nil {
		t.Fatal(err)
	}
	st := s.ExportState()

	if err := s.RestoreState(st); err == nil {
		t.Fatal("restore into non-empty store accepted")
	}
	if err := New(Config{Shards: 8, RingLen: 32}).RestoreState(st); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	bad := *st
	bad.Shards = 8
	bad.ShardAccs = bad.ShardAccs[:2]
	if err := New(Config{Shards: 8, RingLen: 32}).RestoreState(&bad); err == nil {
		t.Fatal("inconsistent shard accumulators accepted")
	}

	// A job's open minutes come from outside too: out of order is put in
	// order, a minute listed twice, one whose moments no readings give, or
	// more minutes than the window holds is refused.
	withMinutes := func(minutes ...int64) *StoreState {
		img := *st
		job := img.Jobs[0]
		job.Minutes = nil
		for _, m := range minutes {
			ms := MinuteState{Minute: m}
			ms.Add(40)
			ms.Add(50 + float64(m))
			job.Minutes = append(job.Minutes, ms)
		}
		img.Jobs = []JobStateExport{job}
		return &img
	}
	sorted := New(cfg)
	if err := sorted.RestoreState(withMinutes(7, 3, 5)); err != nil {
		t.Fatalf("out-of-order minutes refused: %v", err)
	}
	if got := sorted.ExportState().Jobs[0].Minutes; len(got) != 3 || got[0].Minute != 3 || got[1].Minute != 5 || got[2].Minute != 7 || got[2].Max != 57 {
		t.Fatalf("out-of-order minutes restored as %+v", got)
	}
	if err := New(cfg).RestoreState(withMinutes(3, 5, 3)); err == nil {
		t.Fatal("duplicate open minute accepted")
	}
	bent := withMinutes(3, 5)
	bent.Jobs[0].Minutes[1].Max = 1
	if err := New(cfg).RestoreState(bent); err == nil {
		t.Fatal("an open minute whose moments no readings give accepted")
	}
	var tooMany []int64
	for m := int64(1); m <= spatialWindowMinutes+1; m++ {
		tooMany = append(tooMany, m)
	}
	if err := New(cfg).RestoreState(withMinutes(tooMany...)); err == nil {
		t.Fatal("more open minutes than the window holds accepted")
	}
	if err := New(cfg).RestoreState(withMinutes(tooMany[1:]...)); err != nil {
		t.Fatalf("a full window refused: %v", err)
	}

	d := NewDeduper(DedupConfig{Window: 64})
	d.Mark("a", 1)
	ds := d.ExportState()
	if err := NewDeduper(DedupConfig{Window: 128}).InstallState(ds); err == nil {
		t.Fatal("dedup window mismatch accepted")
	}
	d2 := NewDeduper(DedupConfig{Window: 64})
	if err := d2.InstallState(ds); err != nil {
		t.Fatal(err)
	}
	if dup, _ := d2.Mark("a", 1); !dup {
		t.Fatal("restored dedup index forgot a marked sequence")
	}
}

// TestRestoreSmallerRing: restoring into a store configured with a
// smaller ring keeps the most recent points (documented behavior).
func TestRestoreSmallerRing(t *testing.T) {
	big := New(Config{Shards: 2, RingLen: 16})
	for i := 1; i <= 10; i++ {
		if err := big.Append([]trace.PowerSample{{Node: 3, Unix: int64(i), PowerW: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := big.ExportState()
	small := New(Config{Shards: 2, RingLen: 4})
	if err := small.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	pts := small.NodeSeries(3, 0, 0)
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := int64(7 + i); p.Unix != want {
			t.Fatalf("point %d: unix %d, want %d", i, p.Unix, want)
		}
	}
}
