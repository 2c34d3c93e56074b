package tsdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
)

// roundTripNodes encodes st.Nodes and decodes them into a copy of st.
func roundTripNodes(t *testing.T, st *StoreState) *StoreState {
	t.Helper()
	got := *st
	got.Nodes = nil
	if err := got.DecodeNodes(st.AppendNodes(nil)); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &got
}

// requireSameNodes checks a decoded nodes section against the nodes it
// was encoded from, bit for bit, each ring in a slice of its point count.
func requireSameNodes(t *testing.T, ringLen int, got, want []NodeState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d nodes decoded, %d encoded", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Node != w.Node || len(g.Points) != len(w.Points) {
			t.Fatalf("node %d: got id %d with %d points, want id %d with %d", i, g.Node, len(g.Points), w.Node, len(w.Points))
		}
		if cap(g.Points) != len(g.Points) {
			t.Fatalf("node %d: %d points of a %d-point ring decoded into cap %d, want its point count", w.Node, len(g.Points), ringLen, cap(g.Points))
		}
		for j := range w.Points {
			if g.Points[j].Unix != w.Points[j].Unix || math.Float64bits(g.Points[j].PowerW) != math.Float64bits(w.Points[j].PowerW) {
				t.Fatalf("node %d point %d: got %+v, want %+v", w.Node, j, g.Points[j], w.Points[j])
			}
		}
	}
}

// TestNodesCodecRandomStores: stores built through Append — wrapped,
// half-full and one-point rings, late samples — survive the binary nodes
// section bit for bit, serialize to the same JSON as the original state,
// and a store restored from the decoded state continues the stream
// exactly as the original does.
func TestNodesCodecRandomStores(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		cfg := Config{Shards: 4, RingLen: 4 + int(src.Uint64()%40)}
		s := New(cfg)
		for _, b := range randomBatches(src, int(src.Uint64()%120)) {
			if err := s.Append(b.Samples); err != nil {
				t.Fatal(err)
			}
		}
		// One node with a single point, whatever the draw above left.
		if err := s.Append([]trace.PowerSample{{Node: 99, JobID: 1, Unix: 1_700_000_000, PowerW: 0}}); err != nil {
			t.Fatal(err)
		}
		st := s.ExportState()
		got := roundTripNodes(t, st)
		requireSameNodes(t, st.RingLen, got.Nodes, st.Nodes)
		wantJSON, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("seed %d: decoded state marshals differently from the exported one", seed)
		}

		r := New(cfg)
		if err := r.RestoreState(got); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		for _, b := range randomBatches(src, 60) {
			if err := s.Append(b.Samples); err != nil {
				t.Fatal(err)
			}
			if err := r.Append(b.Samples); err != nil {
				t.Fatal(err)
			}
		}
		a, _ := json.Marshal(s.ExportState())
		b, _ := json.Marshal(r.ExportState())
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: restored store diverged from the original after more appends", seed)
		}
	}
}

// TestNodesCodecExtremeValues: the codec is a bijection on anything a
// StoreState can hold, not only on what Append admits.
func TestNodesCodecExtremeValues(t *testing.T) {
	st := &StoreState{RingLen: 16, Nodes: []NodeState{
		{Node: 0, Points: []Point{}},
		{Node: 1, Points: []Point{{Unix: math.MinInt64, PowerW: math.Copysign(0, -1)}, {Unix: math.MaxInt64, PowerW: 0}, {Unix: math.MinInt64 + 1, PowerW: 5e-324}}},
		{Node: 7, Points: []Point{{Unix: -1, PowerW: math.SmallestNonzeroFloat64}, {Unix: 0, PowerW: math.MaxFloat64}, {Unix: 1, PowerW: -math.MaxFloat64}}},
		{Node: 1 << 40, Points: []Point{{Unix: math.MaxInt64 - 1, PowerW: 2.2250738585072009e-308}}},
		{Node: math.MaxInt, Points: []Point{{Unix: 1_700_000_000, PowerW: math.Float64frombits(0x7ff8000000000001)}, {Unix: 1_700_000_060, PowerW: math.Inf(1)}}},
	}}
	got := roundTripNodes(t, st)
	requireSameNodes(t, st.RingLen, got.Nodes, st.Nodes)

	// Without the NaN and the infinity the JSON forms agree too.
	st.Nodes = st.Nodes[:4]
	got = roundTripNodes(t, st)
	a, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("decoded state marshals to\n%s\nwant\n%s", b, a)
	}

	// An empty store keeps its nil node list.
	empty := roundTripNodes(t, &StoreState{RingLen: 16})
	if empty.Nodes != nil {
		t.Fatalf("empty store decoded to %#v, want nil nodes", empty.Nodes)
	}
}

// TestDecodeNodesRejects: every structural lie is an error before it is
// an allocation.
func TestDecodeNodesRejects(t *testing.T) {
	node := func(id uint64, pts ...block.Point) []byte {
		chunk := block.EncodeChunk(pts)
		b := binary.AppendUvarint(nil, id)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(chunk)))
		return append(b, chunk...)
	}
	section := func(count uint64, nodes ...[]byte) []byte {
		b := binary.AppendUvarint(nil, count)
		for _, n := range nodes {
			b = append(b, n...)
		}
		return b
	}
	p := block.Point{T: 1_700_000_000, V: 100}
	for name, tc := range map[string]struct {
		in   []byte
		want string
	}{
		"empty input":        {nil, "bad node count"},
		"count over bytes":   {section(1 << 40), "claims"},
		"duplicate id":       {section(2, node(3, p), node(3, p)), "strictly ascending"},
		"descending ids":     {section(2, node(5, p), node(4, p)), "strictly ascending"},
		"id over MaxInt":     {section(1, node(1<<63, p)), "bad id"},
		"count over ringlen": {section(1, node(1, p, p, p, p, p)), "ring length is 4"},
		"trailing bytes":     {append(section(1, node(1, p)), 0), "after the last node"},
		"missing node":       {section(2, node(1, p)), "cut short"},
		"chunk over bytes":   {section(1, node(1, p))[:12], "bytes left"},
		"truncated chunk": {func() []byte {
			b := section(1, node(1, p, p))
			binary.LittleEndian.PutUint32(b[2:], uint32(len(b)-6-3))
			return b[:len(b)-3]
		}(), "corrupt"},
	} {
		st := &StoreState{RingLen: 4}
		err := st.DecodeNodes(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
		if st.Nodes != nil {
			t.Errorf("%s: a rejected section left %d nodes behind", name, len(st.Nodes))
		}
	}
}

// TestRingOf: a slice of at most the ring's length is adopted, whatever
// its capacity, and a longer one copied; both behave like the appends
// that produced the points.
func TestRingOf(t *testing.T) {
	pts := func(n int) []Point {
		out := make([]Point, n)
		for i := range out {
			out[i] = Point{Unix: int64(i + 1), PowerW: float64(i)}
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		in       []Point
		capacity int
		adopted  bool
	}{
		{"full ring adopted", pts(8), 8, true},
		{"partial with spare capacity adopted", append(make([]Point, 0, 8), pts(3)...), 8, true},
		{"partial adopted", pts(3), 8, true},
		{"one point adopted", pts(1), 8, true},
		{"longer than the ring keeps the newest", pts(11), 8, false},
		{"empty", nil, 8, false},
	} {
		r := ringOf(tc.in, tc.capacity, 0)
		if adopted := len(tc.in) > 0 && &r.buf[0] == &tc.in[0]; adopted != tc.adopted {
			t.Errorf("%s: adopted %v, want %v", tc.name, adopted, tc.adopted)
		}
		if n := min(len(tc.in), tc.capacity); len(r.buf) != n || r.count != n || r.limit != tc.capacity {
			t.Fatalf("%s: ring of %d/%d up to %d, want %d/%d up to %d", tc.name, r.count, len(r.buf), r.limit, n, n, tc.capacity)
		}
		// Two more appends, then the ring must hold the newest points in order.
		want := append(append([]Point(nil), tc.in...), Point{Unix: 100}, Point{Unix: 101})
		want = want[max(0, len(want)-tc.capacity):]
		r.append(Point{Unix: 100})
		r.append(Point{Unix: 101})
		got := r.appendWindow(nil, math.MinInt64, math.MaxInt64)
		if len(got) != len(want) {
			t.Fatalf("%s: %d points after two appends, want %d", tc.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: point %d is %+v, want %+v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// benchShapedStore is the store the end-to-end benchmark's recover
// workloads snapshot: 1,024 nodes × 500 one-minute samples at 0.1 W
// resolution with 5 % noise, in default-sized (1,440-point) rings.
func benchShapedStore(tb testing.TB) *Store {
	tb.Helper()
	const nodes, ticks = 1024, 500
	s := New(DefaultConfig())
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
		if err := s.Append(batch); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// BenchmarkExportState is the time the snapshot path holds the apply
// lock for: every ring copied out under its shard's read lock.
func BenchmarkExportState(b *testing.B) {
	s := benchShapedStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := s.ExportState(); len(st.Nodes) != 1024 {
			b.Fatalf("exported %d nodes", len(st.Nodes))
		}
	}
}
