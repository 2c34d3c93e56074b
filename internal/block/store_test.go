package block

import (
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"hpcpower/internal/stats"
	"hpcpower/internal/vfs"
)

func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fillStore seals n consecutive windows of per-minute data for the given
// nodes and returns the ground-truth points per node.
func fillStore(t *testing.T, s *Store, nodes []int, windows int) map[int][]Point {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	truth := map[int][]Point{}
	win := s.Window()
	for w := 0; w < windows; w++ {
		ws := int64(w) * win
		series := map[int][]Point{}
		for _, n := range nodes {
			var pts []Point
			v := 150 + 10*float64(n)
			for ts := ws; ts < ws+win; ts += 60 {
				if rng.Intn(3) == 0 {
					v = math.Round((v+rng.Float64()*4-2)*10) / 10
				}
				pts = append(pts, Point{T: ts, V: v})
			}
			series[n] = pts
			truth[n] = append(truth[n], pts...)
		}
		if _, err := s.WriteRaw(ws, series); err != nil {
			t.Fatal(err)
		}
	}
	return truth
}

func TestWriteRawValidation(t *testing.T) {
	s := newTestStore(t, Config{WindowSeconds: 7200})
	if _, err := s.WriteRaw(0, map[int][]Point{0: {{T: 7200, V: 1}}}); err == nil {
		t.Fatal("point outside window accepted")
	}
	if _, err := s.WriteRaw(0, map[int][]Point{-1: {{T: 0, V: 1}}}); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := s.WriteRaw(0, map[int][]Point{}); err == nil {
		t.Fatal("empty window accepted")
	}
	// Reads stop at a chunk's first point past their window, which is
	// only sound if no later point is earlier.
	if _, err := s.WriteRaw(0, map[int][]Point{0: {{T: 60, V: 1}}, 1: {{T: 120, V: 1}, {T: 60, V: 2}}}); err == nil {
		t.Fatal("a series whose time decreases was accepted")
	}
	if _, err := s.WriteRaw(7200, map[int][]Point{0: {{T: 7260, V: 1}, {T: 7260, V: 2}}}); err != nil {
		t.Fatalf("equal timestamps refused: %v", err)
	}
	if _, err := s.WriteRaw(0, map[int][]Point{0: {{T: 100, V: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteRaw(0, map[int][]Point{0: {{T: 200, V: 2}}}); !errors.Is(err, ErrExists) {
		t.Fatalf("re-seal returned %v, want ErrExists", err)
	}
}

// countValues is a value table by brute force. Not for −0: a map key
// does not tell it from +0.
func countValues(vals []float64) []stats.ValueCount {
	m := map[float64]uint64{}
	for _, v := range vals {
		m[v]++
	}
	var out []stats.ValueCount
	for v, n := range m {
		out = append(out, stats.ValueCount{V: v, N: n})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].V < out[b].V })
	return out
}

func pointValues(series map[int][]Point) []float64 {
	var vals []float64
	for _, pts := range series {
		for _, p := range pts {
			vals = append(vals, p.V)
		}
	}
	return vals
}

// TestValueTable: a raw block carries the table of its values, and a
// reopened store reads back the same table; a block whose values the
// format cannot hold exactly, or that has more distinct values than a
// tally does, carries none, and neither do rollups.
func TestValueTable(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config{Dir: dir, WindowSeconds: 7200})
	rng := rand.New(rand.NewSource(3))
	windows := []struct {
		name  string
		nodes int
		value func(n int, t int64) float64
		table bool
	}{
		{"0.1 W", 3, func(n int, t int64) float64 { return math.Round((150+10*rng.Float64())*10) / 10 }, true},
		{"continuous, 8,400 distinct", 70, func(int, int64) float64 { return 100 + rng.Float64() }, false},
		{"a −0", 2, func(n int, t int64) float64 { return math.Copysign(float64(t%7200/60), -1) }, false},
		{"milliwatts", 3, func(n int, t int64) float64 { return float64(100000+n*1000+int(t%1000)) / 1000 }, true},
		{"more digits than the format keeps", 1, func(n int, t int64) float64 { return 1 + math.Sqrt(float64(t+2))/1000 }, false},
	}
	values := make([][]float64, len(windows))
	for i, w := range windows {
		ws := int64(i) * 7200
		series := map[int][]Point{}
		for n := 0; n < w.nodes; n++ {
			for ts := ws; ts < ws+7200; ts += 60 {
				series[n] = append(series[n], Point{T: ts, V: w.value(n, ts)})
			}
		}
		if _, err := s.WriteRaw(ws, series); err != nil {
			t.Fatal(err)
		}
		values[i] = pointValues(series)
	}
	if _, err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, label string) {
		t.Helper()
		raw := s.tierBlocks(TierRaw, 0, 0)
		if len(raw) != len(windows) {
			t.Fatalf("%s: %d raw blocks, want %d", label, len(raw), len(windows))
		}
		for i, w := range windows {
			if got := raw[i].Values; !w.table {
				if got != nil {
					t.Errorf("%s: %s: a table of %d values, want none", label, w.name, len(got))
				}
			} else if want := countValues(values[i]); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s: table of %d values differs from the %d counted by brute force", label, w.name, len(got), len(want))
			}
		}
		for _, tier := range []Tier{Tier5m, Tier1h} {
			for _, b := range s.tierBlocks(tier, 0, 0) {
				if b.Values != nil {
					t.Errorf("%s: a %s rollup carries a value table", label, tier)
				}
			}
		}
	}
	check(s, "sealed")
	check(newTestStore(t, Config{Dir: dir, WindowSeconds: 7200}), "reopened")

	// 0.1 W readings take about three bytes an entry, not a float's eight.
	table := countValues(values[0])
	if enc, ok := AppendTable(nil, table); !ok || len(enc) > 3*len(table)+3 {
		t.Fatalf("a table of %d values encodes to %d bytes", len(table), len(enc))
	}
}

// TestVersion1Block: testdata/raw_v1.blk was written by the version-1
// writer (PR 24's WriteRaw): nodes 0–7, a point a minute over [0, 7200)
// reading v1Reading. The reader opens it as a block without a value
// table and serves it by decoding, with the answers a version-2 block of
// the same points gives from its table.
func TestVersion1Block(t *testing.T) {
	v1Reading := func(n int, t int64) float64 {
		return math.Round((100+float64(n%97)+float64(t%1740)/29)*10) / 10
	}
	series := map[int][]Point{}
	for n := 0; n < 8; n++ {
		for ts := int64(0); ts < 7200; ts += 60 {
			series[n] = append(series[n], Point{T: ts, V: v1Reading(n, ts)})
		}
	}
	raw, err := os.ReadFile("testdata/raw_v1.blk")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, blockName(TierRaw, 0)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	v1 := newTestStore(t, Config{Dir: dir, WindowSeconds: 7200})
	v2 := newTestStore(t, Config{WindowSeconds: 7200})
	if _, err := v2.WriteRaw(0, series); err != nil {
		t.Fatal(err)
	}
	if b := v1.tierBlocks(TierRaw, 0, 0); len(b) != 1 || b[0].Values != nil {
		t.Fatalf("the version-1 block opened as %d blocks (or with a table)", len(b))
	}
	all := pointValues(series)
	sort.Float64s(all)
	qs := []float64{0, 0.25, 0.5, 0.95, 1}
	for _, c := range []struct {
		name string
		s    *Store
	}{{"version 1", v1}, {"version 2", v2}} {
		for n, want := range series {
			if got, _, err := c.s.Querier().Range(n, 0, 0); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: node %d: %d points, err %v", c.name, n, len(got), err)
			}
		}
		got, _, err := c.s.Querier().Quantiles(nil, 0, 0, qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want := all[len(all)-1]
			if q < 1 {
				want = all[max(int(math.Ceil(q*float64(len(all))))-1, 0)]
			}
			if got[i] != want {
				t.Fatalf("%s: quantile %v = %v, want %v", c.name, q, got[i], want)
			}
		}
		tally := stats.GetTally()
		ok, _, err := c.s.Querier().TallyValues(tally, nil, 0, 0)
		if !ok || err != nil || !reflect.DeepEqual(tally.Sorted(), countValues(all)) {
			t.Fatalf("%s: tally (counted %v, err %v) differs from the brute-force table", c.name, ok, err)
		}
		stats.PutTally(tally)
	}
	if st := v1.Stats(); st.DistNoTable != 2 || st.DistTable != 0 {
		t.Fatalf("version 1: %d blocks decoded for want of a table, %d from one; want 2 and 0", st.DistNoTable, st.DistTable)
	}
	if st := v2.Stats(); st.DistTable != 2 || st.DistNoTable != 0 {
		t.Fatalf("version 2: %d blocks from their table, %d decoded for want of one; want 2 and 0", st.DistTable, st.DistNoTable)
	}
}

func TestStoreRoundTripAndRescan(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config{Dir: dir, WindowSeconds: 7200})
	truth := fillStore(t, s, []int{0, 2, 5}, 3)
	if _, err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}

	check := func(s *Store, label string) {
		t.Helper()
		for node, want := range truth {
			got, _, err := s.Querier().Range(node, 0, 0)
			if err != nil {
				t.Fatalf("%s: range node %d: %v", label, node, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: node %d: %d points, want %d", label, node, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: node %d point %d: %+v want %+v", label, node, i, got[i], want[i])
				}
			}
		}
		if f := s.Frontier(); f != 3*7200 {
			t.Fatalf("%s: frontier %d, want %d", label, f, 3*7200)
		}
	}
	check(s, "fresh")

	// Drop a torn tmp file into the directory; a reopen must sweep it and
	// rebuild the identical catalog from the published files alone.
	if err := os.WriteFile(filepath.Join(dir, "raw-junk.blk.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newTestStore(t, Config{Dir: dir, WindowSeconds: 7200})
	check(s2, "reopened")
	if _, err := os.Stat(filepath.Join(dir, "raw-junk.blk.tmp")); !os.IsNotExist(err) {
		t.Fatal("tmp file not swept on open")
	}

	st := s2.Stats()
	if st.Raw.Blocks != 3 || st.Rollup5m.Blocks != 3 || st.Rollup1h.Blocks != 3 {
		t.Fatalf("stats blocks = %d/%d/%d, want 3/3/3", st.Raw.Blocks, st.Rollup5m.Blocks, st.Rollup1h.Blocks)
	}
	if st.Raw.Samples != int64(3*3*(7200/60)) {
		t.Fatalf("raw samples %d, want %d", st.Raw.Samples, 3*3*(7200/60))
	}
	if st.BytesPerSample <= 0 {
		t.Fatal("bytes/sample not computed")
	}
	wantNodes := []int{0, 2, 5}
	if got := s2.Nodes(); !equalInts(got, wantNodes) {
		t.Fatalf("nodes %v, want %v", got, wantNodes)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCorruptBlockSkippedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config{Dir: dir, WindowSeconds: 7200})
	fillStore(t, s, []int{1}, 2)

	// Flip a byte in the middle of the first block's index region: the
	// CRC chain must reject the file and Open must keep serving the rest.
	path := filepath.Join(dir, blockName(TierRaw, 0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-30] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newTestStore(t, Config{Dir: dir, WindowSeconds: 7200})
	if got := s2.Stats().Raw.Blocks; got != 1 {
		t.Fatalf("corrupt block not skipped: %d raw blocks, want 1", got)
	}
}

func TestChunkCRCVerifiedOnRead(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config{Dir: dir, WindowSeconds: 7200})
	fillStore(t, s, []int{1}, 1)

	// Corrupt a chunk payload byte (not the index): OpenBlock still
	// succeeds — the chunk read must catch it at access time.
	path := filepath.Join(dir, blockName(TierRaw, 0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[headerLen+frameHdrLen+2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newTestStore(t, Config{Dir: dir, WindowSeconds: 7200})
	if s2.Stats().Raw.Blocks != 1 {
		t.Fatal("block with corrupt chunk should still open (index is intact)")
	}
	// Read-time detection self-heals: the corrupt block is quarantined,
	// the query retries against what survives, and the degraded flag —
	// not an error — reports the loss.
	pts, degraded, err := s2.Querier().Range(1, 0, 0)
	if err != nil {
		t.Fatalf("corrupt chunk should degrade, not fail: %v", err)
	}
	if !degraded {
		t.Fatal("corrupt chunk read did not set degraded")
	}
	if len(pts) != 0 {
		t.Fatalf("quarantined block still served %d points", len(pts))
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("corrupt block not quarantined: %v", err)
	}
	if st := s2.Stats(); st.Quarantined < 1 || st.QuarantineFiles < 1 {
		t.Fatalf("quarantine counters not bumped: %+v", st)
	}
}

func TestCompactionRollupsExact(t *testing.T) {
	s := newTestStore(t, Config{WindowSeconds: 7200})
	truth := fillStore(t, s, []int{0, 7}, 2)
	if n, err := s.CompactPending(); err != nil || n != 4 {
		t.Fatalf("compact built %d (%v), want 4", n, err)
	}
	// Idempotent: nothing left to build.
	if n, err := s.CompactPending(); err != nil || n != 0 {
		t.Fatalf("second compact built %d (%v), want 0", n, err)
	}
	q := s.Querier()
	for node, raw := range truth {
		for _, step := range []int64{300, 3600} {
			aggs, _, err := q.RangeAgg(node, 0, 0, step)
			if err != nil {
				t.Fatal(err)
			}
			want := Rollup(raw, step)
			sort.Slice(want, func(a, b int) bool { return want[a].T < want[b].T })
			if len(aggs) != len(want) {
				t.Fatalf("node %d step %d: %d buckets, want %d", node, step, len(aggs), len(want))
			}
			for i := range want {
				if aggs[i] != want[i] {
					t.Fatalf("node %d step %d bucket %d: %+v want %+v", node, step, i, aggs[i], want[i])
				}
			}
		}
	}
}

func TestRangeAggFallsBackToRawBeforeCompaction(t *testing.T) {
	s := newTestStore(t, Config{WindowSeconds: 7200})
	truth := fillStore(t, s, []int{3}, 2)
	// No CompactPending: RangeAgg must still produce exact buckets by
	// rolling up the raw chunks on the fly.
	aggs, _, err := s.Querier().RangeAgg(3, 0, 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := Rollup(truth[3], 300)
	if len(aggs) != len(want) {
		t.Fatalf("%d buckets, want %d", len(aggs), len(want))
	}
	for i := range want {
		if aggs[i] != want[i] {
			t.Fatalf("bucket %d: %+v want %+v", i, aggs[i], want[i])
		}
	}
}

func TestRangeWindowFiltering(t *testing.T) {
	s := newTestStore(t, Config{WindowSeconds: 7200})
	truth := fillStore(t, s, []int{0}, 3)
	q := s.Querier()
	from, to := int64(7200+600), int64(2*7200+900)
	got, _, err := q.Range(0, from, to)
	if err != nil {
		t.Fatal(err)
	}
	var want []Point
	for _, p := range truth[0] {
		if p.T >= from && p.T <= to {
			want = append(want, p)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: %+v want %+v", i, got[i], want[i])
		}
	}
	if pts, _, err := q.Range(42, 0, 0); err != nil || len(pts) != 0 {
		t.Fatalf("unknown node returned %d points (%v)", len(pts), err)
	}
}

func TestAppendValuesAndQuantiles(t *testing.T) {
	s := newTestStore(t, Config{WindowSeconds: 7200})
	truth := fillStore(t, s, []int{0, 1}, 2)
	var all []float64
	for _, pts := range truth {
		for _, p := range pts {
			all = append(all, p.V)
		}
	}
	vals, _, err := s.Querier().AppendValues(nil, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(all) {
		t.Fatalf("appended %d values, want %d", len(vals), len(all))
	}
	checkQuantiles := func(label string, s *Store, nodes []int, all []float64) {
		t.Helper()
		qs, _, err := s.Querier().Quantiles(nodes, 0, 0, []float64{0, 0.5, 0.95, 1})
		if err != nil {
			t.Fatal(err)
		}
		sort.Float64s(all)
		wantQ := []float64{
			all[0],
			all[int(math.Ceil(0.5*float64(len(all))))-1],
			all[int(math.Ceil(0.95*float64(len(all))))-1],
			all[len(all)-1],
		}
		for i := range qs {
			if qs[i] != wantQ[i] {
				t.Fatalf("%s: quantile %d: %v want %v", label, i, qs[i], wantQ[i])
			}
		}
	}
	checkQuantiles("all nodes, from the tables", s, nil, all)
	checkQuantiles("node 1, decoded", s, []int{1}, pointValues(map[int][]Point{1: truth[1]}))
	// More distinct values than a tally holds: gathered and sorted.
	rng := rand.New(rand.NewSource(5))
	continuous := map[int][]Point{}
	for n := 0; n < 70; n++ {
		for ts := int64(0); ts < 7200; ts += 60 {
			continuous[n] = append(continuous[n], Point{T: ts, V: rng.NormFloat64()})
		}
	}
	sc := newTestStore(t, Config{WindowSeconds: 7200})
	if _, err := sc.WriteRaw(0, continuous); err != nil {
		t.Fatal(err)
	}
	checkQuantiles("continuous", sc, nil, pointValues(continuous))

	// Single-node filter, appended behind what dst already holds.
	vals, _, err = s.Querier().AppendValues([]float64{-1}, []int{1, 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != -1 || len(vals)-1 != len(truth[1]) {
		t.Fatalf("node filter appended %d values behind %v, want %d behind -1", len(vals)-1, vals[0], len(truth[1]))
	}
	for i, p := range truth[1] {
		if vals[1+i] != p.V {
			t.Fatalf("node filter value %d = %v, want %v", i, vals[1+i], p.V)
		}
	}
}

func TestEnforceRetention(t *testing.T) {
	s := newTestStore(t, Config{
		WindowSeconds: 7200,
		RetentionRaw:  time.Hour,       // raw ages out fast
		Retention5m:   100 * time.Hour, // rollups survive
	})
	truth := fillStore(t, s, []int{0}, 2)
	if _, err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	// "now" far past the data: both raw windows end ≤ now−1h.
	now := time.Unix(4*7200+3600+1, 0)
	removed, err := s.EnforceRetention(now)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d blocks, want 2", removed)
	}
	st := s.Stats()
	if st.Raw.Blocks != 0 {
		t.Fatalf("%d raw blocks survive retention, want 0", st.Raw.Blocks)
	}
	if st.Rollup5m.Blocks != 2 || st.Rollup1h.Blocks != 2 {
		t.Fatalf("rollups deleted: %d/%d, want 2/2", st.Rollup5m.Blocks, st.Rollup1h.Blocks)
	}
	if st.RetentionUnlinked != 2 {
		t.Fatalf("RetentionUnlinked %d, want 2", st.RetentionUnlinked)
	}
	// Aggregate queries keep serving — exactly — from the surviving
	// rollup tiers: that is the point of per-tier retention (drop raw
	// after 30 days, keep rollups for years).
	aggs, _, err := s.Querier().RangeAgg(0, 0, 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := Rollup(truth[0], 300)
	sort.Slice(want, func(a, b int) bool { return want[a].T < want[b].T })
	if len(aggs) != len(want) {
		t.Fatalf("RangeAgg returned %d buckets after raw retention, want %d", len(aggs), len(want))
	}
	for i := range want {
		if aggs[i] != want[i] {
			t.Fatalf("post-retention bucket %d: %+v want %+v", i, aggs[i], want[i])
		}
	}
	files, err := filepath.Glob(filepath.Join(s.cfg.Dir, "raw-*.blk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("raw files on disk after retention: %v", files)
	}
}

// failRemove is an FS whose next Remove fails with EIO when armed.
type failRemove struct {
	vfs.FS
	armed bool
}

func (f *failRemove) Remove(name string) error {
	if f.armed {
		f.armed = false
		return &fs.PathError{Op: "remove", Path: name, Err: syscall.EIO}
	}
	return f.FS.Remove(name)
}

// TestRetentionKeepsBlockItCouldNotUnlink: a block whose unlink fails is
// still on disk, so it stays cataloged (served, counted in the size
// gauges), is not counted as removed, and goes on the next pass.
func TestRetentionKeepsBlockItCouldNotUnlink(t *testing.T) {
	fsys := &failRemove{FS: vfs.OS}
	s := newTestStore(t, Config{FS: fsys, WindowSeconds: 7200, RetentionRaw: time.Hour})
	fillStore(t, s, []int{0}, 2)
	now := time.Unix(4*7200+3600+1, 0)
	onDisk := func() int {
		files, err := filepath.Glob(filepath.Join(s.cfg.Dir, "raw-*.blk"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}

	fsys.armed = true
	removed, err := s.EnforceRetention(now)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("first pass: err %v, want the unlink's EIO", err)
	}
	st := s.Stats()
	if removed != 1 || st.RetentionUnlinked != 1 || st.Raw.Blocks != 1 || onDisk() != 1 {
		t.Fatalf("first pass: removed %d, counted %d, cataloged %d, on disk %d; want 1 each",
			removed, st.RetentionUnlinked, st.Raw.Blocks, onDisk())
	}

	removed, err = s.EnforceRetention(now)
	if err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if removed != 1 || st.RetentionUnlinked != 2 || st.Raw.Blocks != 0 || onDisk() != 0 {
		t.Fatalf("second pass: removed %d, counted %d, cataloged %d, on disk %d; want 1, 2, 0, 0",
			removed, st.RetentionUnlinked, st.Raw.Blocks, onDisk())
	}
}

func TestBackgroundLoop(t *testing.T) {
	s := newTestStore(t, Config{WindowSeconds: 7200, CompactInterval: 10 * time.Millisecond})
	fillStore(t, s, []int{0}, 1)
	s.Start()
	defer s.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Rollup5m.Blocks == 1 && st.Rollup1h.Blocks == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("background compactor did not build rollups in time")
}

// TestWriteRawConcurrentSealSingleWinner: the background flush loop
// and POST /v1/admin/flush can try to seal the same window at once.
// Exactly one write may win, and the published file's bytes must match
// the catalog entry — a torn or swapped-out file shows up here (and
// under -race) as a CRC mismatch or wrong winner data.
func TestWriteRawConcurrentSealSingleWinner(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config{Dir: dir, WindowSeconds: 7200})
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var pts []Point
			for ts := int64(0); ts < 7200; ts += 60 {
				pts = append(pts, Point{T: ts, V: 100 + float64(i)})
			}
			_, errs[i] = s.WriteRaw(0, map[int][]Point{0: pts})
		}(i)
	}
	wg.Wait()
	winner := -1
	for i, err := range errs {
		switch {
		case err == nil:
			if winner >= 0 {
				t.Fatalf("writers %d and %d both sealed window 0", winner, i)
			}
			winner = i
		case !errors.Is(err, ErrExists):
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if winner < 0 {
		t.Fatal("no writer sealed the window")
	}
	// Both the live catalog and a fresh scan of the directory must read
	// the winner's data back CRC-clean.
	reopened := newTestStore(t, Config{Dir: dir, WindowSeconds: 7200})
	for _, st := range []*Store{s, reopened} {
		pts, _, err := st.Querier().Range(0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 7200/60 || pts[0].V != 100+float64(winner) {
			t.Fatalf("read %d points first V=%v, want %d points of writer %d",
				len(pts), pts[0].V, 7200/60, winner)
		}
	}
}

// TestRangeAggEdgeBucketsMatchRawFilter: buckets must aggregate exactly
// the samples with from ≤ t ≤ to, even when from/to land mid-bucket and
// interior windows are served from rollup chunks — the head-side
// contract, so a bucket's contents never depend on which side of the
// flush frontier serves it.
func TestRangeAggEdgeBucketsMatchRawFilter(t *testing.T) {
	s := newTestStore(t, Config{WindowSeconds: 7200})
	truth := fillStore(t, s, []int{3}, 3)
	if _, err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ from, to int64 }{
		{0, 3*7200 - 1},    // aligned control
		{0, 7200 + 450},    // to mid-bucket, mid-window
		{630, 2*7200 + 17}, // both edges unaligned
		{7200, 2*7200 - 1}, // exactly one interior window
	} {
		for _, step := range []int64{300, 3600} {
			got, _, err := s.Querier().RangeAgg(3, tc.from, tc.to, step)
			if err != nil {
				t.Fatal(err)
			}
			var in []Point
			for _, p := range truth[3] {
				if p.T >= tc.from && p.T <= tc.to {
					in = append(in, p)
				}
			}
			want := Rollup(in, step)
			sort.Slice(want, func(a, b int) bool { return want[a].T < want[b].T })
			if len(got) != len(want) {
				t.Fatalf("[%d,%d] step %d: %d buckets, want %d", tc.from, tc.to, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("[%d,%d] step %d bucket %d: %+v want %+v", tc.from, tc.to, step, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRangeAggClipsRollupEdgesAfterRawRetention: once raw has aged out,
// a mid-bucket `to` cannot be trimmed at sample granularity anymore —
// the straddling rollup bucket must be dropped, never served with
// out-of-range samples folded in.
func TestRangeAggClipsRollupEdgesAfterRawRetention(t *testing.T) {
	s := newTestStore(t, Config{
		WindowSeconds: 7200,
		RetentionRaw:  time.Hour,
		Retention5m:   100 * time.Hour,
		Retention1h:   100 * time.Hour,
	})
	truth := fillStore(t, s, []int{0}, 1)
	if _, err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnforceRetention(time.Unix(3*7200, 0)); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Raw.Blocks != 0 {
		t.Fatal("raw tier survived retention — test is vacuous")
	}
	to := int64(450) // middle of the second 5m bucket
	aggs, _, err := s.Querier().RangeAgg(0, 0, to, 300)
	if err != nil {
		t.Fatal(err)
	}
	var in []Point
	for _, p := range truth[0] {
		if p.T <= 299 { // the only whole 5m bucket inside [0, 450]
			in = append(in, p)
		}
	}
	want := Rollup(in, 300)
	if len(aggs) != len(want) {
		t.Fatalf("%d buckets, want %d (straddling bucket must be dropped)", len(aggs), len(want))
	}
	for i := range want {
		if aggs[i] != want[i] {
			t.Fatalf("bucket %d: %+v want %+v", i, aggs[i], want[i])
		}
	}
}
