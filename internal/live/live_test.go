package live

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/core"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

const testWindow = 7200

// fleetStore holds four windows of per-minute samples for the given
// number of nodes, the first three sealed into blocks.
func fleetStore(t *testing.T, nodes int) (*tsdb.Store, []float64) {
	t.Helper()
	s := tsdb.New(tsdb.Config{Shards: 4, RingLen: 1024})
	bs, err := block.Open(block.Config{Dir: t.TempDir(), WindowSeconds: testWindow})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachBlocks(bs)
	var values []float64
	batch := make([]trace.PowerSample, nodes)
	for unix := int64(testWindow); unix < 5*testWindow; unix += 60 {
		for n := range batch {
			batch[n] = trace.PowerSample{Node: n, JobID: uint64(n/8 + 1), Unix: unix, PowerW: reading(n, unix)}
			values = append(values, batch[n].PowerW)
		}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if sealed, err := s.FlushBlocks(4 * testWindow); err != nil || sealed != 3 {
		t.Fatalf("sealed %d windows, err %v", sealed, err)
	}
	return s, values
}

// reading is the 0.1 W sample fleetStore holds for a node and time.
func reading(n int, unix int64) float64 {
	return math.Round((100+float64(n%97)+float64(unix%1740)/29)*10) / 10
}

// sample is one reading the store serves, for brute-force answers.
type sample struct {
	t int64
	v float64
}

// mixedStore holds, in block files: a version-1 block over [0, w) (the
// PR 24 writer's testdata/raw_v1.blk: nodes 0–7, reading), a block of
// continuous readings over [w, 2w) — 8,400 distinct values, more than a
// tally holds, so it has no value table — and three 0.1 W fleet windows
// over [2w, 5w); one more window in the head, with late samples on
// either side of a head window. It returns every sample it serves.
func mixedStore(t *testing.T) (*tsdb.Store, *block.Store, []sample) {
	t.Helper()
	dir := t.TempDir()
	v1, err := os.ReadFile("../block/testdata/raw_v1.blk")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "raw-0000000000000000.blk"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	bs, err := block.Open(block.Config{Dir: dir, WindowSeconds: testWindow})
	if err != nil {
		t.Fatal(err)
	}
	var served []sample
	for n := 0; n < 8; n++ {
		for unix := int64(0); unix < testWindow; unix += 60 {
			served = append(served, sample{unix, reading(n, unix)})
		}
	}
	rng := rand.New(rand.NewSource(7))
	continuous := map[int][]block.Point{}
	for n := 100; n < 170; n++ {
		for unix := int64(testWindow); unix < 2*testWindow; unix += 60 {
			p := block.Point{T: unix, V: 200 + rng.Float64()}
			continuous[n] = append(continuous[n], p)
			served = append(served, sample{p.T, p.V})
		}
	}
	if info, err := bs.WriteRaw(testWindow, continuous); err != nil || info.Values != nil {
		t.Fatalf("continuous block: err %v (or it has a value table)", err)
	}

	s := tsdb.New(tsdb.Config{Shards: 4, RingLen: 1024})
	s.AttachBlocks(bs)
	batch := make([]trace.PowerSample, 40)
	for unix := int64(2 * testWindow); unix < 6*testWindow; unix += 60 {
		for n := range batch {
			batch[n] = trace.PowerSample{Node: n, JobID: uint64(n/8 + 1), Unix: unix, PowerW: reading(n, unix)}
			served = append(served, sample{unix, batch[n].PowerW})
		}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if sealed, err := s.FlushBlocks(5 * testWindow); err != nil || sealed != 3 {
		t.Fatalf("sealed %d windows, err %v", sealed, err)
	}
	// Late samples in the head: every third ring now holds points out of
	// time order and is filtered point by point, the others are searched.
	from, to := int64(5*testWindow+600), int64(5*testWindow+4200)
	var late []trace.PowerSample
	for n := 0; n < 40; n += 3 {
		late = append(late,
			trace.PowerSample{Node: n, JobID: uint64(n/8 + 1), Unix: from + 30, PowerW: 555.5}, // inside the window
			trace.PowerSample{Node: n, JobID: uint64(n/8 + 1), Unix: from - 30, PowerW: 666.6}, // before it
			trace.PowerSample{Node: n, JobID: uint64(n/8 + 1), Unix: from + 30, PowerW: 555.5}, // an equal timestamp
			trace.PowerSample{Node: n, JobID: uint64(n/8 + 1), Unix: to + 3600, PowerW: 777.7}) // newest again
	}
	if err := s.Append(late); err != nil {
		t.Fatal(err)
	}
	for _, smp := range late {
		served = append(served, sample{smp.Unix, smp.PowerW})
	}
	return s, bs, served
}

// TestSamplePowerMatchesDistFromValues: wherever the window falls —
// over whole blocks (their tables), cutting blocks at either end
// (decoded), across the flush frontier, in the head among late samples,
// over a version-1 block or over one whose readings are continuous — the
// distribution is DistFromValues over the samples brute force finds in
// it, bit for bit; and where counting gives up, the values path answers
// instead, the same way.
func TestSamplePowerMatchesDistFromValues(t *testing.T) {
	s, bs, served := mixedStore(t)
	const w = testWindow
	for _, c := range []struct {
		name                 string
		from, to             int64
		table, edge, noTable int64 // raw blocks visited, by path
		counted              bool
	}{
		{"whole blocks", 2 * w, 4*w - 1, 2, 0, 0, true},
		{"blocks cut at both ends", 2*w + 600, 4*w + 1799, 1, 2, 0, true},
		{"across the frontier", 4*w + 1200, 5*w + 1800, 0, 1, 0, true},
		{"in the head, among late samples", 5*w + 600, 5*w + 4200, 0, 0, 0, true},
		{"the version-1 block", 0, w - 1, 0, 0, 1, true},
		{"the continuous block's last ten minutes", 2*w - 600, 2*w + 1799, 0, 2, 0, true},
		{"the continuous block whole: counting gives up", w, 3*w - 1, 0, 0, 1, false},
		{"unbounded", 0, 0, 0, 0, 1, false},
	} {
		var values []float64
		for _, smp := range served {
			if smp.t >= c.from && (c.to <= 0 || smp.t <= c.to) {
				values = append(values, smp.v)
			}
		}
		before := bs.Stats()
		got, degraded, err := SamplePower(s, c.from, c.to)
		if err != nil || degraded {
			t.Fatalf("%s: degraded %v, err %v", c.name, degraded, err)
		}
		if want := core.DistFromValues(values); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SamplePower has n %d, mean %v, p95 %v, want n %d, mean %v, p95 %v (or the CDFs differ)",
				c.name, got.N, got.Mean, got.P95, want.N, want.Mean, want.P95)
		}
		after := bs.Stats()
		if table, edge, noTable := after.DistTable-before.DistTable, after.DistEdge-before.DistEdge, after.DistNoTable-before.DistNoTable; !c.counted {
			if noTable < 1 {
				t.Errorf("%s: gave up before decoding a block without a table", c.name)
			}
		} else if table != c.table || edge != c.edge || noTable != c.noTable {
			t.Errorf("%s: %d blocks from their tables, %d edges, %d without a table; want %d, %d, %d",
				c.name, table, edge, noTable, c.table, c.edge, c.noTable)
		}
		tally := stats.GetTally()
		if counted, _, err := s.TallyValues(tally, c.from, c.to); err != nil || counted != c.counted {
			t.Errorf("%s: tally counted %v, want %v (err %v)", c.name, counted, c.counted, err)
		}
		stats.PutTally(tally)
	}
	// A window starting at every minute of a block and covering its end
	// (and, every other minute, the next block whole): the block goes by
	// complement against its table, bit for bit what its values give.
	for m := int64(0); m < w/60; m++ {
		from, to, whole := 2*w+60*m, int64(3*w-1), int64(0)
		if m%2 == 1 {
			to, whole = 4*w-1, 1
		}
		var values []float64
		for _, smp := range served {
			if smp.t >= from && smp.t <= to {
				values = append(values, smp.v)
			}
		}
		before := bs.Stats()
		got, degraded, err := SamplePower(s, from, to)
		if err != nil || degraded {
			t.Fatalf("from minute %d: degraded %v, err %v", m, degraded, err)
		}
		if want := core.DistFromValues(values); !reflect.DeepEqual(got, want) {
			t.Fatalf("from minute %d of the block: n %d, mean %v, want n %d, mean %v (or the CDFs differ)", m, got.N, got.Mean, want.N, want.Mean)
		}
		wantTable, wantEdge := whole, int64(1)
		if m == 0 {
			wantTable, wantEdge = whole+1, 0
		}
		if after := bs.Stats(); after.DistTable-before.DistTable != wantTable || after.DistEdge-before.DistEdge != wantEdge {
			t.Fatalf("from minute %d: %d tables, %d edges; want %d, %d", m, after.DistTable-before.DistTable, after.DistEdge-before.DistEdge, wantTable, wantEdge)
		}
	}

	in, err := Collect(s, "emmy", 0)
	if err != nil || in.Frontier != 5*w {
		t.Fatalf("Collect: frontier %d, err %v", in.Frontier, err)
	}
	if got, _, _ := SamplePower(s, 0, 0); !reflect.DeepEqual(in.SamplePower, got) {
		t.Fatalf("Collect: sample power %+v, SamplePower %+v", in.SamplePower, got)
	}
	t.Run("a table that lacks a value", tableLacksValue)
}

// tableLacksValue: a block whose value table lacks a value its chunks
// hold — the index CRC-clean, so only the complement can tell — is
// corruption when a window's start cuts it: the pull degrades, the block
// is quarantined, and the answer holds each surviving value exactly once.
func tableLacksValue(t *testing.T) {
	const w = testWindow
	dir := t.TempDir()
	bs, err := block.Open(block.Config{Dir: dir, WindowSeconds: w})
	if err != nil {
		t.Fatal(err)
	}
	var served []sample
	for ws := int64(w); ws < 4*w; ws += w {
		series := map[int][]block.Point{}
		for n := 0; n < 8; n++ {
			for unix := ws; unix < ws+w; unix += 60 {
				series[n] = append(series[n], block.Point{T: unix, V: reading(n, unix)})
				served = append(served, sample{unix, reading(n, unix)})
			}
		}
		if _, err := bs.WriteRaw(ws, series); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "raw-0000000000014400.blk")
	dropFromTable(t, path, reading(0, 2*w))

	bs, err = block.Open(block.Config{Dir: dir, WindowSeconds: w})
	if err != nil {
		t.Fatal(err)
	}
	s := tsdb.New(tsdb.Config{Shards: 4, RingLen: 1024})
	s.AttachBlocks(bs)
	batch := make([]trace.PowerSample, 8)
	for unix := int64(4 * w); unix < 5*w; unix += 60 {
		for n := range batch {
			batch[n] = trace.PowerSample{Node: n, JobID: 1, Unix: unix, PowerW: reading(n, unix)}
			served = append(served, sample{unix, batch[n].PowerW})
		}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	from := int64(2*w + 600)
	got, degraded, err := SamplePower(s, from, 0)
	if err != nil || !degraded {
		t.Fatalf("degraded %v, err %v; want a degraded answer", degraded, err)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("the block is not quarantined: %v", err)
	}
	var surviving []float64
	for _, smp := range served {
		if smp.t >= 3*w {
			surviving = append(surviving, smp.v)
		}
	}
	if want := core.DistFromValues(surviving); !reflect.DeepEqual(got, want) {
		t.Fatalf("n %d, mean %v; the surviving values give n %d, mean %v", got.N, got.Mean, want.N, want.Mean)
	}
}

// dropFromTable rewrites the block file at path with value v gone from
// its value table, its count moved to a neighbouring value so the counts
// still sum to the block's samples, and the index frame and trailer
// checksummed again: a table that is well formed but wrong.
func dropFromTable(t *testing.T, path string, v float64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	trailer := b[len(b)-20:]
	idxOff := int64(le.Uint64(trailer))
	payload := b[idxOff+8 : len(b)-20]
	n := int(le.Uint32(payload))
	entries := payload[:4+64*n]
	var samples uint64
	for i := 0; i < n; i++ {
		samples += le.Uint64(entries[4+64*i+56:])
	}
	table, err := block.DecodeTable(nil, payload[len(entries):], samples)
	if err != nil || len(table) < 2 {
		t.Fatalf("table of %d values, err %v", len(table), err)
	}
	i := slices.IndexFunc(table, func(c stats.ValueCount) bool { return c.V == v })
	if i < 0 {
		t.Fatalf("the table lacks %v already", v)
	}
	table[(i+1)%len(table)].N += table[i].N
	table = slices.Delete(table, i, i+1)
	idx, _ := block.AppendTable(slices.Clone(entries), table)
	out := slices.Clone(b[:idxOff])
	out = le.AppendUint32(out, uint32(len(idx)))
	out = le.AppendUint32(out, crc32.Checksum(idx, castagnoli))
	out = append(out, idx...)
	tr := le.AppendUint64(nil, uint64(idxOff))
	tr = le.AppendUint32(tr, uint32(8+len(idx)))
	tr = le.AppendUint32(tr, crc32.Checksum(tr, castagnoli))
	out = append(append(out, tr...), "KLBP"...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSamplePowerAllocations is a cost test without a clock: once its
// buffers are warm, a fleet-wide pull allocates a handful of objects
// per block (the file handle, the reader) plus the LiveDist — not one
// per series, point or node. The copy-per-ring, open-per-chunk pull it
// replaced made more than a thousand at either size.
func TestSamplePowerAllocations(t *testing.T) {
	const bound = 32
	for _, nodes := range []int{32, 256} {
		s, _ := fleetStore(t, nodes)
		pull := func() {
			if d, _, err := SamplePower(s, 0, 0); err != nil || d.N != int64(nodes*4*testWindow/60) {
				t.Fatalf("pulled %d values, err %v", d.N, err)
			}
		}
		pull()
		if allocs := testing.AllocsPerRun(10, pull); allocs > bound {
			t.Fatalf("%d nodes: %.0f allocations per warmed pull, want ≤ %d whatever the fleet size", nodes, allocs, bound)
		}
	}
}
