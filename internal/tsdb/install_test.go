package tsdb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
)

// TestInstallStateReplacesLiveStore: a snapshot installed over a live,
// already-populated store (the follower-bootstrap path) must leave
// analytics byte-identical to the snapshot's source, with no residue of
// the pre-install contents.
func TestInstallStateReplacesLiveStore(t *testing.T) {
	src := rng.New(7)
	cfg := Config{Shards: 4, RingLen: 64}

	primary := New(cfg)
	d := NewDeduper(DedupConfig{Window: 128})
	batches := randomBatches(src, 60)
	for _, b := range batches {
		applyThroughDedup(t, primary, d, b)
	}
	want := analyticsImage(t, primary)
	st := primary.ExportState()

	// The follower already holds a divergent prefix plus junk the
	// primary never saw.
	follower := New(cfg)
	fd := NewDeduper(DedupConfig{Window: 128})
	for _, b := range batches[:20] {
		applyThroughDedup(t, follower, fd, b)
	}
	for _, b := range randomBatches(rng.New(99), 10) {
		applyThroughDedup(t, follower, fd, b)
	}
	// The readings are off the 0.1 W grid, so every job is coarse: the
	// follower has counted its own, one of them a job the primary never
	// had, before the image brings the primary's.
	if err := follower.Append([]trace.PowerSample{{Node: 1, JobID: 77, Unix: 1_700_000_000, PowerW: 150.05}}); err != nil {
		t.Fatal(err)
	}
	if follower.CoarseJobs() == 0 || primary.CoarseJobs() == 0 {
		t.Fatalf("coarse jobs: follower %d, primary %d, want some on both", follower.CoarseJobs(), primary.CoarseJobs())
	}

	if err := follower.InstallState(st); err != nil {
		t.Fatal(err)
	}
	if got := analyticsImage(t, follower); !bytes.Equal(got, want) {
		t.Fatal("analytics after InstallState differ from the snapshot source")
	}
	if follower.Ingested() != primary.Ingested() {
		t.Fatalf("ingested = %d, want %d", follower.Ingested(), primary.Ingested())
	}
	if follower.CoarseJobs() != primary.CoarseJobs() {
		t.Fatalf("coarse jobs after install = %d, want the image's %d", follower.CoarseJobs(), primary.CoarseJobs())
	}

	// And the store keeps working: the stream continues where the
	// snapshot left off, exactly as it would on the primary.
	more := randomBatches(rng.New(11), 10)
	for _, b := range more {
		if err := follower.Append(b.Samples); err != nil {
			t.Fatal(err)
		}
		if err := primary.Append(b.Samples); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := analyticsImage(t, follower), analyticsImage(t, primary); !bytes.Equal(got, want) {
		t.Fatal("post-install appends diverged from the primary")
	}
}

// TestInstallStateValidationLeavesStoreUntouched: a rejected install
// (shard mismatch, corrupt job state) must not disturb the live store.
func TestInstallStateValidationLeavesStoreUntouched(t *testing.T) {
	cfg := Config{Shards: 4, RingLen: 64}
	s := New(cfg)
	for _, b := range randomBatches(rng.New(3), 20) {
		if err := s.Append(b.Samples); err != nil {
			t.Fatal(err)
		}
	}
	before := analyticsImage(t, s)

	if err := s.InstallState(&StoreState{Shards: 8}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	bad := New(cfg)
	if err := bad.Append(randomBatches(rng.New(4), 5)[0].Samples); err != nil {
		t.Fatal(err)
	}
	st := bad.ExportState()
	st.Jobs = append(st.Jobs, JobStateExport{ID: 999, Table: &TableState{Counts: []uint32{3}}})
	if err := s.InstallState(st); err == nil {
		t.Fatal("corrupt job state accepted")
	}
	if got := analyticsImage(t, s); !bytes.Equal(got, before) {
		t.Fatal("failed install disturbed the store")
	}
}

// TestDeduperInstallStateSurvival is the follower-promotion scenario:
// a standby installs the primary's dedup snapshot (InstallState over a
// live index), is promoted, and the shipper — which never saw acks for
// its in-flight tail — redelivers batches the old primary already
// counted. Every redelivered (agent, seq) must register as a duplicate.
func TestDeduperInstallStateSurvival(t *testing.T) {
	primary := NewDeduper(DedupConfig{Window: 128})
	for seq := uint64(1); seq <= 300; seq++ {
		if dup, _ := primary.Mark("agent-a", seq); dup {
			t.Fatalf("seq %d duplicate on first delivery", seq)
		}
	}
	st := primary.ExportState()

	// The follower's own index lags (it only replicated a prefix) and
	// knows an agent the snapshot also covers.
	follower := NewDeduper(DedupConfig{Window: 128})
	for seq := uint64(1); seq <= 250; seq++ {
		follower.Mark("agent-a", seq)
	}
	if err := follower.InstallState(st); err != nil {
		t.Fatal(err)
	}

	// Promotion: redelivery of anything the primary acked is a dup —
	// in-window sequences via the bitmap, older ones via staleness.
	for seq := uint64(250); seq <= 300; seq++ {
		if dup, _ := follower.Mark("agent-a", seq); !dup {
			t.Fatalf("redelivered seq %d counted as new after install", seq)
		}
	}
	if dup, stale := follower.Mark("agent-a", 10); !dup || !stale {
		t.Fatalf("ancient seq 10 = (dup %v, stale %v), want (true, true)", dup, stale)
	}
	// Fresh traffic to the promoted follower is accepted once, then
	// deduplicated.
	if dup, _ := follower.Mark("agent-a", 301); dup {
		t.Fatal("fresh seq 301 rejected")
	}
	if dup, _ := follower.Mark("agent-a", 301); !dup {
		t.Fatal("second delivery of seq 301 accepted")
	}
}

// TestDeduperInstallStateConcurrent hammers Mark while InstallState
// swaps the index — the -race companion to the survival test above.
func TestDeduperInstallStateConcurrent(t *testing.T) {
	primary := NewDeduper(DedupConfig{Window: 256})
	for a := 0; a < 4; a++ {
		for seq := uint64(1); seq <= 200; seq++ {
			primary.Mark(fmt.Sprintf("agent-%d", a), seq)
		}
	}
	st := primary.ExportState()

	follower := NewDeduper(DedupConfig{Window: 256})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for a := 0; a < 4; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			agent := fmt.Sprintf("agent-%d", a)
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				follower.Mark(agent, seq%400+1)
			}
		}(a)
	}
	for i := 0; i < 50; i++ {
		if err := follower.InstallState(st); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
