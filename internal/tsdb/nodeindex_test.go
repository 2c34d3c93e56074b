package tsdb

import (
	"math"
	"slices"
	"testing"

	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
)

// colliders returns n node IDs of shard 0 of a store of 1<<bits shards
// whose probes all start at slot 0 of any index up to 64 slots long.
func colliders(bits uint, n int) []int {
	var out []int
	for node := 0; len(out) < n; node++ {
		if h := mix(uint64(node)); h&(1<<bits-1) == 0 && (h>>bits)&63 == 0 {
			out = append(out, node)
		}
	}
	return out
}

// FuzzNodeIndex checks a shard's node index against a map[int]*ring
// doing the same puts: every lookup, the count, and the set the slots
// hold must agree after each step, through growth, on IDs that share
// a probe start and on IDs near the top of int. The nodes then go
// through a store of the same shard bits, ExportState and InstallState,
// and every one must be found in the installed store, and found again
// after it appends.
//
//	go test -run xxx -fuzz FuzzNodeIndex ./internal/tsdb/
func FuzzNodeIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{4, 200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 3, 3, 200})
	for seed := uint64(1); seed <= 4; seed++ {
		src := rng.New(seed)
		ops := make([]byte, 64<<seed)
		for i := range ops {
			ops[i] = byte(src.Uint64())
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		bits := uint(ops[0] % 5)
		collide := colliders(bits, 32)
		huge := []int{math.MaxInt, math.MaxInt - 1, 1 << 62, 1<<62 + 1, 1 << 40, math.MaxInt32 + 1}
		// An op byte names a node: from a small range, from the ones
		// sharing a probe start, or from the huge ones.
		node := func(b byte) int {
			switch {
			case b < 128:
				return int(b)
			case b < 224:
				return collide[int(b-128)%len(collide)]
			default:
				return huge[int(b-224)%len(huge)]
			}
		}
		x := newNodeIndex(0, bits)
		ref := map[int]*ring{}
		for _, b := range ops[1:] {
			n := node(b)
			h := mix(uint64(n))
			if got := x.get(n, h); got != ref[n] {
				t.Fatalf("get(%d) = %p, the map holds %p", n, got, ref[n])
			}
			r := newRing(1)
			x.put(n, h, r)
			ref[n] = r
			if x.n != len(ref) || 2*x.n > len(x.rings) {
				t.Fatalf("%d rings in %d slots, the map holds %d", x.n, len(x.rings), len(ref))
			}
		}
		held := map[int]*ring{}
		for slot, r := range x.rings {
			if r != nil {
				if _, dup := held[x.keys[slot]]; dup {
					t.Fatalf("node %d holds two slots", x.keys[slot])
				}
				held[x.keys[slot]] = r
			}
		}
		for n, r := range ref {
			if held[n] != r || x.lookup(n) != r {
				t.Fatalf("node %d: slot ring %p, lookup %p, the map holds %p", n, held[n], x.lookup(n), r)
			}
		}
		if len(held) != len(ref) {
			t.Fatalf("slots hold %d nodes, the map %d", len(held), len(ref))
		}

		// Through a store: every node in one batch, exported, installed
		// into a store of the same shape, and appended to there.
		cfg := Config{Shards: 1 << bits, RingLen: 4}
		s := New(cfg)
		want := make([]int, 0, len(ref))
		var batch []trace.PowerSample
		for n := range ref {
			want = append(want, n)
			batch = append(batch, trace.PowerSample{Node: n, JobID: 1, Unix: 60, PowerW: float64(n % 1000)})
		}
		slices.Sort(want)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		installed := New(cfg)
		if err := installed.InstallState(s.ExportState()); err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			batch[i].Unix = 120
		}
		if err := installed.Append(batch); err != nil {
			t.Fatal(err)
		}
		if got := installed.NodeIDs(); !slices.Equal(got, want) {
			t.Fatalf("installed store holds nodes %v, want %v", got, want)
		}
		for _, n := range want {
			if pts := installed.NodeSeries(n, 0, 0); len(pts) != 2 || pts[0].Unix != 60 || pts[1].Unix != 120 {
				t.Fatalf("installed node %d holds %v", n, pts)
			}
		}
		if sum := installed.Summarize(); sum.Nodes != len(want) {
			t.Fatalf("installed store counts %d nodes, want %d", sum.Nodes, len(want))
		}
	})
}
