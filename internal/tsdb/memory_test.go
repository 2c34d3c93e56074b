package tsdb

import (
	"math"
	"testing"

	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
)

// TestMemoryBytesAccounting checks the structural account: zero when
// empty, grows once per new node/job and with a job's quantile table
// (not per sample), and is rebuilt by snapshot restore. A ring is a
// reservation: accounted at its full length from its first point, and
// unchanged as its buffer grows to it.
func TestMemoryBytesAccounting(t *testing.T) {
	s := New(Config{Shards: 4, RingLen: 1000})
	if got := s.MemoryBytes(); got != 0 {
		t.Fatalf("empty store MemoryBytes = %d, want 0", got)
	}
	idle := func(unix int64) []trace.PowerSample {
		return []trace.PowerSample{{Unix: 1_700_000_000 + unix, Node: 7, PowerW: 90}}
	}
	if err := s.Append(idle(0)); err != nil {
		t.Fatal(err)
	}
	if got := s.MemoryBytes(); got != s.ringBytes() || len(s.nodeShard(7).nodes.lookup(7).buf) >= s.ringLen {
		t.Fatalf("one-point ring of buffer %d accounted at %d, want %d", len(s.nodeShard(7).nodes.lookup(7).buf), got, s.ringBytes())
	}
	grows := 0
	for unix := int64(60); unix <= 60*int64(s.ringLen+1); unix += 60 {
		before := len(s.nodeShard(7).nodes.lookup(7).buf)
		if err := s.Append(idle(unix)); err != nil {
			t.Fatal(err)
		}
		if len(s.nodeShard(7).nodes.lookup(7).buf) != before {
			grows++
		}
		if got := s.MemoryBytes(); got != s.ringBytes() {
			t.Fatalf("after %d growths to a buffer of %d, MemoryBytes = %d, want %d", grows, len(s.nodeShard(7).nodes.lookup(7).buf), got, s.ringBytes())
		}
	}
	if grows < 2 || len(s.nodeShard(7).nodes.lookup(7).buf) != s.ringLen {
		t.Fatalf("%d growths to a buffer of %d, want several to %d", grows, len(s.nodeShard(7).nodes.lookup(7).buf), s.ringLen)
	}
	s = New(Config{Shards: 4, RingLen: 100})
	batch := []trace.PowerSample{
		{Unix: 60, Node: 1, JobID: 10, PowerW: 100},
		{Unix: 120, Node: 1, JobID: 10, PowerW: 110},
		{Unix: 60, Node: 2, JobID: 10, PowerW: 120},
	}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	// 2 nodes, 1 job and its table.
	want := func(s *Store) int64 { return 2*s.ringBytes() + jobStateBytes + s.jobShard(10).jobs[10].table.bytes() }
	if got := s.MemoryBytes(); got != want(s) || want(s) <= 2*s.ringBytes()+jobStateBytes {
		t.Fatalf("MemoryBytes = %d, want %d", got, want(s))
	}
	// More samples into existing nodes/jobs, within the span the job's
	// table covers, must not change the account.
	before := s.MemoryBytes()
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	if got := s.MemoryBytes(); got != before {
		t.Fatalf("MemoryBytes after re-append = %d, want %d", got, before)
	}

	// Restore rebuilds the account.
	st := s.ExportState()
	fresh := New(Config{Shards: 4, RingLen: 100})
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := fresh.MemoryBytes(); got != want(fresh) {
		t.Fatalf("restored MemoryBytes = %d, want %d", got, want(fresh))
	}

	// InstallState over a live store recounts too.
	live := New(Config{Shards: 4, RingLen: 100})
	live.Append([]trace.PowerSample{{Unix: 60, Node: 9, JobID: 99, PowerW: 50}})
	if err := live.InstallState(st); err != nil {
		t.Fatal(err)
	}
	if got := live.MemoryBytes(); got != want(live) {
		t.Fatalf("installed MemoryBytes = %d, want %d", got, want(live))
	}
}

// TestQuantileTableBoundedForFleetJob: a job shaped like the end-to-end
// benchmark's — 64 nodes at one base level with phases, ±17 % noise and
// per-node offsets, at 0.1 W, at the top of the 90–330 W fleet range —
// keeps an exact table of at most 8 KB, whatever order its readings
// come in, and its account is what the table holds.
func TestQuantileTableBoundedForFleetJob(t *testing.T) {
	src := rng.New(5)
	s := New(DefaultConfig())
	for tick := int64(0); tick < 720; tick++ {
		level := 260 * [3]float64{0.92, 1.08, 0.97}[tick*3/720]
		batch := make([]trace.PowerSample, 64)
		for n := range batch {
			z := (src.Float64() + src.Float64() + src.Float64() + src.Float64() - 2) * 1.7320508
			w := math.Round((level*(1+0.05*z)+float64(n%61)/10-3)*10) / 10
			batch[n] = trace.PowerSample{Node: n, JobID: 1, Unix: 1_700_000_000 + tick*60, PowerW: w}
		}
		src.Shuffle(len(batch), func(i, k int) { batch[i], batch[k] = batch[k], batch[i] })
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	j := s.jobShard(1).jobs[1]
	if j.table.coarse() || j.table.bytes() > 8<<10 || s.CoarseJobs() != 0 {
		t.Fatalf("table of %d bytes, coarse %v (store counts %d coarse jobs), want exact within 8 KB", j.table.bytes(), j.table.coarse(), s.CoarseJobs())
	}
	if want := 64*s.ringBytes() + jobStateBytes + j.table.bytes(); s.MemoryBytes() != want {
		t.Fatalf("MemoryBytes %d, want %d", s.MemoryBytes(), want)
	}
}

// TestDeduperMemoryBytes checks the per-agent dedup account.
func TestDeduperMemoryBytes(t *testing.T) {
	d := NewDeduper(DedupConfig{Window: 128})
	if got := d.MemoryBytes(); got != 0 {
		t.Fatalf("empty deduper MemoryBytes = %d, want 0", got)
	}
	d.Mark("a", 1)
	d.Mark("b", 1)
	per := int64(128/8) + dedupAgentOverheadBytes
	if got := d.MemoryBytes(); got != 2*per {
		t.Fatalf("MemoryBytes = %d, want %d", got, 2*per)
	}
	// Re-marking the same agent does not grow the account.
	d.Mark("a", 2)
	if got := d.MemoryBytes(); got != 2*per {
		t.Fatalf("MemoryBytes after re-mark = %d, want %d", got, 2*per)
	}
}
