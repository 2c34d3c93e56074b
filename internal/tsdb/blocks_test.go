package tsdb

import (
	"errors"
	"math"
	"math/rand"
	"syscall"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/trace"
	"hpcpower/internal/vfs"
)

const testWindow = 7200

func newBlockedStore(t *testing.T, dir string, ringLen int) *Store {
	t.Helper()
	s := New(Config{Shards: 4, RingLen: ringLen})
	bs, err := block.Open(block.Config{Dir: dir, WindowSeconds: testWindow})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachBlocks(bs)
	return s
}

// synthSamples builds windows of per-minute samples for the nodes,
// starting at window 1 (Unix must be positive).
func synthSamples(nodes []int, windows int) []trace.PowerSample {
	rng := rand.New(rand.NewSource(5))
	var out []trace.PowerSample
	for w := 1; w <= windows; w++ {
		ws := int64(w) * testWindow
		for ts := ws; ts < ws+testWindow; ts += 60 {
			for _, n := range nodes {
				v := math.Round((100+20*float64(n)+rng.Float64()*5)*10) / 10
				out = append(out, trace.PowerSample{Node: n, JobID: uint64(n + 1), Unix: ts, PowerW: v})
			}
		}
	}
	return out
}

func appendAll(t *testing.T, s *Store, samples []trace.PowerSample) {
	t.Helper()
	for off := 0; off < len(samples); off += 256 {
		end := off + 256
		if end > len(samples) {
			end = len(samples)
		}
		if err := s.Append(samples[off:end]); err != nil {
			t.Fatal(err)
		}
	}
}

func samePoints(t *testing.T, label string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestMergedReadsMatchControl is the core head/block invariant: after a
// flush, merged reads over blocks+head are identical to an un-flushed
// control store holding everything in its rings.
func TestMergedReadsMatchControl(t *testing.T) {
	nodes := []int{0, 1, 2}
	samples := synthSamples(nodes, 5)

	s := newBlockedStore(t, t.TempDir(), 100000)
	control := New(Config{Shards: 4, RingLen: 100000})
	appendAll(t, s, samples)
	appendAll(t, control, samples)

	// Flush the first three windows; the rest stays head-only.
	cut := int64(4) * testWindow
	sealed, err := s.FlushBlocks(cut)
	if err != nil {
		t.Fatal(err)
	}
	if sealed != 3 {
		t.Fatalf("sealed %d windows, want 3", sealed)
	}
	if f := s.BlockFrontier(); f != cut {
		t.Fatalf("frontier %d, want %d", f, cut)
	}

	for _, n := range nodes {
		got, _, err := s.QueryRange(n, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, "full range", got, control.NodeSeries(n, 0, 0))

		// A window straddling the frontier: half blocks, half head.
		from, to := cut-testWindow/2, cut+testWindow/2
		got, _, err = s.QueryRange(n, from, to)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, "straddling range", got, control.NodeSeries(n, from, to))
	}

	// Merged aggregates: every bucket equals the brute-force rollup of
	// the control's points, including the bucket split by the frontier.
	if _, err := s.Blocks().CompactPending(); err != nil {
		t.Fatal(err)
	}
	for _, step := range []int64{300, 3600, 86400} {
		for _, n := range nodes {
			to := int64(6)*testWindow - 1
			got, _, err := s.QueryAgg(n, 0, to, step)
			if err != nil {
				t.Fatal(err)
			}
			var cp []block.Point
			for _, p := range control.NodeSeries(n, 0, to) {
				cp = append(cp, block.Point{T: p.Unix, V: p.PowerW})
			}
			want := block.Rollup(cp, step)
			if len(got) != len(want) {
				t.Fatalf("step %d node %d: %d buckets, want %d", step, n, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.T != w.T || g.Count != w.Count || g.Min != w.Min || g.Max != w.Max {
					t.Fatalf("step %d node %d bucket %d: %+v want %+v", step, n, i, g, w)
				}
				// Steps matching a tier (300, 3600) are served straight from
				// rollup chunks whose sums were accumulated from raw in order:
				// bit-exact. Coarser steps re-sum tier buckets, so addition
				// order differs from the raw brute force by rounding only.
				if step == 300 || step == 3600 {
					if g.Sum != w.Sum {
						t.Fatalf("step %d node %d bucket %d: sum %v want %v (exact)", step, n, i, g.Sum, w.Sum)
					}
				} else if math.Abs(g.Sum-w.Sum) > 1e-9*math.Abs(w.Sum) {
					t.Fatalf("step %d node %d bucket %d: sum %v want %v", step, n, i, g.Sum, w.Sum)
				}
			}
		}
	}

	// A `to` landing mid-bucket below the frontier: the block-served
	// trailing bucket must contain exactly the samples ≤ to, as head-side
	// bucketing would — not the whole rollup bucket.
	for _, n := range nodes {
		to := cut - 450
		got, _, err := s.QueryAgg(n, 0, to, 300)
		if err != nil {
			t.Fatal(err)
		}
		var cp []block.Point
		for _, p := range control.NodeSeries(n, 0, to) {
			cp = append(cp, block.Point{T: p.Unix, V: p.PowerW})
		}
		want := block.Rollup(cp, 300)
		if len(got) != len(want) {
			t.Fatalf("mid-bucket to node %d: %d buckets, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mid-bucket to node %d bucket %d: %+v want %+v", n, i, got[i], want[i])
			}
		}
	}

	// Merged value stream covers every sample exactly once.
	vals, _, err := s.AppendValuesMerged(nil, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(samples) {
		t.Fatalf("appended %d values, want %d", len(vals), len(samples))
	}
}

// TestBlocksOutliveRingEviction shows the point of the split: a ring far
// smaller than the data keeps serving complete history because sealed
// windows moved to blocks before eviction.
func TestBlocksOutliveRingEviction(t *testing.T) {
	// Big enough to hold one whole window (120 points) until its flush,
	// far smaller than the 480-point history.
	const ringLen = 150
	s := newBlockedStore(t, t.TempDir(), ringLen)
	control := New(Config{Shards: 4, RingLen: 100000})

	samples := synthSamples([]int{7}, 4)
	appendAll(t, control, samples)
	// Ingest window by window, flushing each sealed window before the
	// ring evicts it — the production cadence in miniature.
	perWindow := testWindow / 60
	for w := 0; w < 4; w++ {
		// synthSamples starts at window 1, so batch w spans
		// [(w+1)·W, (w+2)·W) — flush with the cut just past it.
		appendAll(t, s, samples[w*perWindow:(w+1)*perWindow])
		if _, err := s.FlushBlocks(int64(w+2) * testWindow); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.NodeSeries(7, 0, 0)); got >= len(samples) {
		t.Fatalf("ring retained %d points — eviction never happened, test is vacuous", got)
	}
	got, _, err := s.QueryRange(7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "post-eviction", got, control.NodeSeries(7, 0, 0))
}

// TestReplayAfterFlushNoDoubleIngest is the crash-recovery contract: WAL
// replay re-appends samples that were already sealed into blocks; the
// frontier (re-derived from the block files) must keep them from being
// flushed or served twice.
func TestReplayAfterFlushNoDoubleIngest(t *testing.T) {
	dir := t.TempDir()
	samples := synthSamples([]int{0, 1}, 3)

	s := newBlockedStore(t, dir, 100000)
	appendAll(t, s, samples)
	if _, err := s.FlushBlocks(4 * testWindow); err != nil {
		t.Fatal(err)
	}
	before := s.Blocks().Stats()

	// "Restart": fresh head, same block dir, full WAL replay.
	s2 := newBlockedStore(t, dir, 100000)
	if f := s2.BlockFrontier(); f != 4*testWindow {
		t.Fatalf("recovered frontier %d, want %d", f, 4*testWindow)
	}
	appendAll(t, s2, samples)
	sealed, err := s2.FlushBlocks(4 * testWindow)
	if err != nil {
		t.Fatal(err)
	}
	if sealed != 0 {
		t.Fatalf("re-flush sealed %d windows, want 0", sealed)
	}
	after := s2.Blocks().Stats()
	if after.Raw.Blocks != before.Raw.Blocks || after.Raw.Samples != before.Raw.Samples {
		t.Fatalf("replay changed blocks: %+v → %+v", before.Raw, after.Raw)
	}

	// Every sample served exactly once despite living in both ring and
	// blocks.
	vals, _, err := s2.AppendValuesMerged(nil, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(samples) {
		t.Fatalf("appended %d values, want %d (double-serve?)", len(vals), len(samples))
	}
}

// TestFlushSkipsEmptyWindows: gaps advance the frontier without files.
func TestFlushSkipsEmptyWindows(t *testing.T) {
	s := newBlockedStore(t, t.TempDir(), 100000)
	var samples []trace.PowerSample
	for _, w := range []int64{1, 4} { // windows 2 and 3 empty
		for ts := w * testWindow; ts < (w+1)*testWindow; ts += 60 {
			samples = append(samples, trace.PowerSample{Node: 0, Unix: ts, PowerW: 100})
		}
	}
	appendAll(t, s, samples)
	sealed, err := s.FlushBlocks(5 * testWindow)
	if err != nil {
		t.Fatal(err)
	}
	if sealed != 2 {
		t.Fatalf("sealed %d, want 2", sealed)
	}
	if f := s.BlockFrontier(); f != 5*testWindow {
		t.Fatalf("frontier %d, want %d", f, 5*testWindow)
	}
	if n := s.Blocks().Stats().Raw.Blocks; n != 2 {
		t.Fatalf("%d raw blocks, want 2", n)
	}
}

// TestBlockFrontierRidesSnapshot: the frontier is part of exported store
// state, so a snapshot restore on a blockless dir still refuses to
// double-flush.
func TestBlockFrontierRidesSnapshot(t *testing.T) {
	s := newBlockedStore(t, t.TempDir(), 100000)
	appendAll(t, s, synthSamples([]int{0}, 2))
	if _, err := s.FlushBlocks(3 * testWindow); err != nil {
		t.Fatal(err)
	}
	st := s.ExportState()
	if st.BlockFrontier != 3*testWindow {
		t.Fatalf("exported frontier %d, want %d", st.BlockFrontier, 3*testWindow)
	}
	s2 := New(Config{Shards: 4, RingLen: 100000})
	if err := s2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if f := s2.BlockFrontier(); f != 3*testWindow {
		t.Fatalf("restored frontier %d, want %d", f, 3*testWindow)
	}
	s3 := New(Config{Shards: 4, RingLen: 100000})
	if err := s3.InstallState(st); err != nil {
		t.Fatal(err)
	}
	if f := s3.BlockFrontier(); f != 3*testWindow {
		t.Fatalf("installed frontier %d, want %d", f, 3*testWindow)
	}
}

// TestFlushHeadOnly: a store without blocks attached is a no-op flush.
func TestFlushHeadOnly(t *testing.T) {
	s := New(Config{Shards: 4, RingLen: 128})
	appendAll(t, s, synthSamples([]int{0}, 1))
	sealed, err := s.FlushBlocks(10 * testWindow)
	if err != nil || sealed != 0 {
		t.Fatalf("head-only flush: %d, %v", sealed, err)
	}
	if f := s.BlockFrontier(); f != 0 {
		t.Fatalf("frontier %d, want 0", f)
	}
}

// dirSyncFS sends directory fsyncs, and nothing else, through a FaultFS.
type dirSyncFS struct {
	vfs.FS
	dirs *vfs.FaultFS
}

func (d dirSyncFS) SyncDir(dir string) error { return d.dirs.SyncDir(dir) }

// TestFlushFrontierWaitsForDurableSeal: a window whose block file was
// renamed into place but whose directory fsync failed is not sealed. The
// flush reports the error, the frontier stays below the window (reads
// keep coming from the head), and the next flush seals it for good.
func TestFlushFrontierWaitsForDurableSeal(t *testing.T) {
	dirs := vfs.NewFault(vfs.OS, vfs.FaultConfig{})
	s := New(Config{Shards: 4, RingLen: 100000})
	bs, err := block.Open(block.Config{Dir: t.TempDir(), WindowSeconds: testWindow, FS: dirSyncFS{vfs.OS, dirs}})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachBlocks(bs)
	samples := synthSamples([]int{0, 1}, 2)
	appendAll(t, s, samples)
	if sealed, err := s.FlushBlocks(2 * testWindow); err != nil || sealed != 1 {
		t.Fatalf("first window: sealed %d, %v", sealed, err)
	}

	dirs.Configure(func(c *vfs.FaultConfig) { c.SyncErrProb = 1 })
	sealed, err := s.FlushBlocks(3 * testWindow)
	if !errors.Is(err, syscall.EIO) || sealed != 0 {
		t.Fatalf("flush under a failing directory fsync: sealed %d, %v; want 0 and EIO", sealed, err)
	}
	if f := s.BlockFrontier(); f != 2*testWindow {
		t.Fatalf("frontier %d after the failed seal, want %d", f, 2*testWindow)
	}
	if f := bs.Frontier(); f != 2*testWindow {
		t.Fatalf("the unsealed window is catalogued: block frontier %d", f)
	}

	dirs.Configure(func(c *vfs.FaultConfig) { c.SyncErrProb = 0 })
	if sealed, err := s.FlushBlocks(3 * testWindow); err != nil || sealed != 1 {
		t.Fatalf("retry: sealed %d, %v", sealed, err)
	}
	if f := s.BlockFrontier(); f != 3*testWindow {
		t.Fatalf("frontier %d after the retry, want %d", f, 3*testWindow)
	}
	vals, _, err := s.AppendValuesMerged(nil, nil, 0, 0)
	if err != nil || len(vals) != len(samples) {
		t.Fatalf("%d values served (%v), want %d", len(vals), err, len(samples))
	}
}
