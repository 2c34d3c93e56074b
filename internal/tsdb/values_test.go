package tsdb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

// wantValues is AppendValuesMerged by brute force: the power of every
// sample of the wanted nodes (none = all) inside [from, to] that the
// store serves — sealed into a block when below the frontier, still in
// its ring otherwise — sorted.
func wantValues(sealed, head []trace.PowerSample, frontier int64, nodes []int, from, to int64) []float64 {
	want := map[int]bool{}
	for _, n := range nodes {
		want[n] = true
	}
	var out []float64
	keep := func(smp trace.PowerSample) bool {
		return (len(nodes) == 0 || want[smp.Node]) && smp.Unix >= from && (to <= 0 || smp.Unix <= to)
	}
	for _, smp := range sealed {
		if keep(smp) {
			out = append(out, smp.PowerW)
		}
	}
	for _, smp := range head {
		if smp.Unix >= frontier && keep(smp) {
			out = append(out, smp.PowerW)
		}
	}
	sort.Float64s(out)
	return out
}

// tallyValues is TallyValues's answer expanded back into values, and
// whether it degraded.
func tallyValues(t *testing.T, s *Store, from, to int64) (vals []float64, degraded bool) {
	t.Helper()
	tally := stats.GetTally()
	defer stats.PutTally(tally)
	ok, degraded, err := s.TallyValues(tally, from, to)
	if err != nil || !ok {
		t.Fatalf("TallyValues [%d, %d]: counted %v, err %v", from, to, ok, err)
	}
	for _, c := range tally.Sorted() {
		for range c.N {
			vals = append(vals, c.V)
		}
	}
	return vals, degraded
}

func sameValues(t *testing.T, label string, got, want []float64) {
	t.Helper()
	got = append([]float64(nil), got...)
	sort.Float64s(got)
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sorted value %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// valuesFixture is a store with three windows sealed and two in the
// head, plus two stragglers that arrived after the flush: one below the
// frontier (in no block and not the head's to serve, so it is in no
// answer) and one above it but older than its ring's newest point.
func valuesFixture(t *testing.T, dir string) (s *Store, sealed, head []trace.PowerSample, frontier int64) {
	t.Helper()
	samples := synthSamples([]int{0, 1, 2, 3, 4, 5}, 5)
	s = newBlockedStore(t, dir, 100000)
	appendAll(t, s, samples)
	frontier = 4 * testWindow
	if n, err := s.FlushBlocks(frontier); err != nil || n != 3 {
		t.Fatalf("sealed %d windows, err %v", n, err)
	}
	for _, smp := range samples {
		if smp.Unix < frontier {
			sealed = append(sealed, smp)
		} else {
			head = append(head, smp)
		}
	}
	late := []trace.PowerSample{
		{Node: 2, JobID: 3, Unix: frontier - 90, PowerW: 999.9},
		{Node: 2, JobID: 3, Unix: frontier + 30, PowerW: 777.7},
	}
	appendAll(t, s, late)
	return s, sealed, append(head, late...), frontier
}

func TestAppendValuesMergedMatchesBruteForce(t *testing.T) {
	s, sealed, head, f := valuesFixture(t, t.TempDir())
	windows := []struct {
		name     string
		from, to int64
	}{
		{"unbounded", 0, 0},
		{"blocks only", testWindow + 600, 3*testWindow - 1},
		{"blocks only, whole chunks", 2 * testWindow, 4*testWindow - 1},
		{"straddling the frontier", f - testWindow/2, f + testWindow/2},
		{"head only", f + 60, f + testWindow},
		{"open above, from inside a block", 2*testWindow + 1800, 0},
		{"around the late samples", f - 120, f + 60},
		{"before any data", 1, 60},
	}
	subsets := [][]int{nil, {}, {1}, {4, 1, 4}, {2}, {99}, {0, 1, 2, 3, 4, 5}}
	for _, w := range windows {
		for _, nodes := range subsets {
			label := fmt.Sprintf("%s, nodes %v", w.name, nodes)
			got, degraded, err := s.AppendValuesMerged([]float64{-1}, nodes, w.from, w.to)
			if err != nil || degraded {
				t.Fatalf("%s: degraded %v, err %v", label, degraded, err)
			}
			if got[0] != -1 {
				t.Fatalf("%s: overwrote what dst held", label)
			}
			sameValues(t, label, got[1:], wantValues(sealed, head, f, nodes, w.from, w.to))
		}
		tallied, _ := tallyValues(t, s, w.from, w.to)
		sameValues(t, w.name+", tallied", tallied, wantValues(sealed, head, f, nil, w.from, w.to))
	}
}

// corruptFixture is valuesFixture with a byte flipped inside the chunk
// region of the middle block, and the samples that survive its
// quarantine.
func corruptFixture(t *testing.T) (s *Store, surviving, head []trace.PowerSample, f int64, path string) {
	dir := t.TempDir()
	s, sealed, head, f := valuesFixture(t, dir)
	path = filepath.Join(dir, fmt.Sprintf("raw-%016d.blk", 2*testWindow))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, smp := range sealed {
		if smp.Unix < 2*testWindow || smp.Unix >= 3*testWindow {
			surviving = append(surviving, smp)
		}
	}
	return s, surviving, head, f, path
}

// TestAppendValuesMergedSurvivesCorruptChunk: the scan has already
// appended the first block's values when it trips over the corrupt
// chunk, the block is quarantined, and the retry must leave every
// surviving value in dst exactly once. A tally that decodes the block —
// the window cuts it — starts over the same way.
func TestAppendValuesMergedSurvivesCorruptChunk(t *testing.T) {
	s, surviving, head, f, path := corruptFixture(t)
	for _, nodes := range [][]int{nil, {1, 3}} {
		got, degraded, err := s.AppendValuesMerged([]float64{-1}, nodes, 0, 0)
		if err != nil {
			t.Fatalf("nodes %v: corruption should degrade, not fail: %v", nodes, err)
		}
		// The first pull quarantines; the second finds the catalog clean.
		if wantDegraded := nodes == nil; degraded != wantDegraded {
			t.Fatalf("nodes %v: degraded = %v", nodes, degraded)
		}
		if got[0] != -1 {
			t.Fatalf("nodes %v: retry cut dst below where it started", nodes)
		}
		sameValues(t, fmt.Sprintf("nodes %v", nodes), got[1:], wantValues(surviving, head, f, nodes, 0, 0))
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("corrupt block not quarantined: %v", err)
	}

	s, surviving, head, f, _ = corruptFixture(t)
	from := int64(2*testWindow + 60)
	tallied, degraded := tallyValues(t, s, from, 0)
	if !degraded {
		t.Fatal("a tally through the corrupt chunk did not degrade")
	}
	sameValues(t, "tallied", tallied, wantValues(surviving, head, f, nil, from, 0))
}

// TestQueryRangeOrdersLateSample: the merged range read skips its sort
// when blocks + ring are already in time order, and must still sort
// when a late sample sits out of order in the ring.
func TestQueryRangeOrdersLateSample(t *testing.T) {
	s, _, _, f := valuesFixture(t, t.TempDir())
	pts, _, err := s.QueryRange(2, f-testWindow, f+testWindow)
	if err != nil {
		t.Fatal(err)
	}
	if want := testWindow/60 + testWindow/60 + 1 + 1; len(pts) != want {
		t.Fatalf("%d points, want %d (two windows, the end point, the late sample above the frontier)", len(pts), want)
	}
	if !sort.SliceIsSorted(pts, func(a, b int) bool { return pts[a].Unix < pts[b].Unix }) {
		t.Fatal("points not in time order")
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Unix >= f+30 })
	if pts[i] != (Point{Unix: f + 30, PowerW: 777.7}) {
		t.Fatalf("late sample not in its place: %+v", pts[i])
	}
	for _, p := range pts {
		if p.PowerW == 999.9 {
			t.Fatal("a sample replayed below the frontier was served from the head")
		}
	}
	// The aggregate read takes the same short cut and the same fallback.
	aggs, _, err := s.QueryAgg(2, f, f+testWindow-1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != testWindow/300 || aggs[0].T != f || aggs[0].Count != 6 || aggs[0].Max != 777.7 {
		t.Fatalf("%d buckets, first %+v; want %d with the late sample in the first", len(aggs), aggs[0], testWindow/300)
	}
}

// TestDistributionPullsBesideAppendAndFlush runs fleet-wide pulls and
// range reads against a writer that appends and seals windows: under
// -race this is the check that the in-place ring scan and the head's
// window tables hold the right locks, and in any mode that a pull sees
// every acknowledged sample exactly once wherever the frontier is when it
// looks — unbounded, and bounded over the newest closed window and the
// open one, which the head answers from a cached table while it is
// not yet sealed.
func TestDistributionPullsBesideAppendAndFlush(t *testing.T) {
	const nodes, batchLen = 24, 24
	// inWindow is how many of the first n samples the writer sends lie
	// in [from, to]: whole ticks of one sample a node, a minute apart.
	inWindow := func(n, from, to int64) int64 {
		var in int64
		for tick := int64(0); tick < n/batchLen; tick++ {
			if unix := testWindow + tick*60; unix >= from && unix <= to {
				in += batchLen
			}
		}
		return in
	}
	s := newBlockedStore(t, t.TempDir(), 100000)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		batch := make([]trace.PowerSample, batchLen)
		for tick := int64(0); tick < 6*testWindow/60; tick++ {
			unix := testWindow + tick*60
			for n := range batch {
				batch[n] = trace.PowerSample{Node: n, JobID: 1, Unix: unix, PowerW: float64(100 + n)}
			}
			if err := s.Append(batch); err != nil {
				t.Error(err)
				return
			}
			if tick%45 == 0 {
				if _, err := s.FlushBlocks(unix - 600); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var vals []float64
			for {
				select {
				case <-done:
					return
				default:
				}
				before := s.Ingested()
				var err error
				vals, _, err = s.AppendValuesMerged(vals[:0], nil, 0, 0)
				after := s.Ingested()
				if err != nil {
					t.Error(err)
					return
				}
				// A batch is visible in the rings before it is counted.
				if n := int64(len(vals)); n < before || n > after+batchLen {
					t.Errorf("pull returned %d values with %d..%d ingested", n, before, after)
					return
				}
				tally := stats.GetTally()
				before = s.Ingested()
				counted, _, err := s.TallyValues(tally, 0, 0)
				after = s.Ingested()
				var n int64
				for _, c := range tally.Sorted() {
					n += int64(c.N)
				}
				stats.PutTally(tally)
				if !counted || err != nil || n < before || n > after+batchLen {
					t.Errorf("tally (counted %v) held %d values with %d..%d ingested, err %v", counted, n, before, after, err)
					return
				}
				for back := int64(1); back <= 2; back++ {
					from := (floorDiv(s.heads.newest.Load(), testWindow) - back) * testWindow
					to := from + (back+1)*testWindow - 1
					tally := stats.GetTally()
					before = s.Ingested()
					counted, _, err := s.TallyValues(tally, from, to)
					after = s.Ingested()
					var n int64
					for _, c := range tally.Sorted() {
						n += int64(c.N)
					}
					stats.PutTally(tally)
					if lo, hi := inWindow(before, from, to), inWindow(after+batchLen, from, to); !counted || err != nil || n < lo || n > hi {
						t.Errorf("tally of [%d, %d] (counted %v) held %d values with %d..%d sent there, err %v", from, to, counted, n, lo, hi, err)
						return
					}
				}
				if _, _, err := s.QueryRange(3, 0, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	vals, _, err := s.AppendValuesMerged(nil, nil, 0, 0)
	if err != nil || int64(len(vals)) != s.Ingested() {
		t.Fatalf("final pull: %d values of %d ingested, err %v", len(vals), s.Ingested(), err)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if want := float64(s.Ingested()) / nodes * (nodes*100 + nodes*(nodes-1)/2); math.Abs(sum-want) > 1e-6 {
		t.Fatalf("final pull sums to %v, want %v", sum, want)
	}
	if s.Blocks().Stats().Raw.Blocks < 4 {
		t.Fatalf("writer sealed %d blocks; the test needs pulls to cross flushes", s.Blocks().Stats().Raw.Blocks)
	}
}
