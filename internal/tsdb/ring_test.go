package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
)

// linearWindow is the filter loop window replaced: every retained point
// with from ≤ Unix ≤ hi, in insertion order.
func linearWindow(r *ring, from, hi int64) []Point {
	var out []Point
	older, newer := r.segments()
	for _, seg := range [2][]Point{older, newer} {
		for _, p := range seg {
			if p.Unix >= from && p.Unix <= hi {
				out = append(out, p)
			}
		}
	}
	return out
}

// requireWindowsMatch checks the three window readers of r against the
// linear filter on [from, hi], element for element.
func requireWindowsMatch(t *testing.T, label string, r *ring, from, hi int64) {
	t.Helper()
	want := linearWindow(r, from, hi)
	got := r.appendWindow([]Point{{Unix: -7}}, from, hi)
	if got[0].Unix != -7 || !slices.Equal(got[1:], want) {
		t.Fatalf("%s: appendWindow[%d, %d] = %v, the linear filter says %v", label, from, hi, got[1:], want)
	}
	if n := r.countWindow(from, hi); n != len(want) {
		t.Fatalf("%s: countWindow[%d, %d] = %d, want %d", label, from, hi, n, len(want))
	}
	vals := r.appendValues([]float64{-7}, from, hi)
	if vals[0] != -7 || len(vals) != len(want)+1 {
		t.Fatalf("%s: appendValues[%d, %d] returned %d values, want %d", label, from, hi, len(vals)-1, len(want))
	}
	for i, p := range want {
		if vals[i+1] != p.PowerW {
			t.Fatalf("%s: appendValues[%d, %d] value %d = %v, want %v", label, from, hi, i, vals[i+1], p.PowerW)
		}
	}
}

// requireRingReads checks ordered() against the points themselves and
// the window readers on random and edge windows around the ring's span.
func requireRingReads(t *testing.T, label string, src *rng.Source, r *ring, lo, hi int64) {
	t.Helper()
	all := linearWindow(r, math.MinInt64, math.MaxInt64)
	sorted := slices.IsSortedFunc(all, func(a, b Point) int { return int(a.Unix - b.Unix) })
	if r.ordered() != sorted {
		t.Fatalf("%s: ordered() = %v with sinceLate %d, count %d, points %v", label, r.ordered(), r.sinceLate, r.count, all)
	}
	span := hi - lo + 3
	for i := 0; i < 6; i++ {
		a, b := lo-1+int64(src.Uint64()%uint64(span)), lo-1+int64(src.Uint64()%uint64(span))
		requireWindowsMatch(t, label, r, min(a, b), max(a, b))
		requireWindowsMatch(t, label, r, a, a) // one timestamp, which several points may share
	}
	requireWindowsMatch(t, label, r, math.MinInt64, math.MaxInt64)
	requireWindowsMatch(t, label, r, hi+1, math.MaxInt64)
	requireWindowsMatch(t, label, r, math.MinInt64, lo-1)
	requireWindowsMatch(t, label, r, hi, lo) // empty: from > hi
}

// TestRingWindowMatchesLinearFilter drives rings of several capacities
// with seeded streams — in order, with equal timestamps, with late
// arrivals — through wrap-around, and after every append compares the
// window readers with the linear filter they replaced. Every stream
// with a late arrival must also show the ring unordered while the late
// point and its predecessor are both retained and ordered again once
// one of them is evicted.
func TestRingWindowMatchesLinearFilter(t *testing.T) {
	const base = 1_700_000_000
	for _, stream := range []struct {
		name      string
		late      uint64 // one append in this many arrives late; 0 = never
		equal     uint64 // one in this many repeats the newest timestamp
		wantFlips bool
	}{
		{"in order", 0, 0, false},
		{"equal timestamps", 0, 3, false},
		{"late arrivals", 9, 0, true},
		{"late and equal", 7, 4, true},
		{"mostly late", 2, 5, true},
	} {
		for _, capacity := range []int{1, 2, 3, 8, 33} {
			src := rng.New(uint64(capacity)*1000 + stream.late*10 + stream.equal)
			r := newRing(capacity)
			now := int64(base)
			sawUnordered, reordered := false, false
			for i := 0; i < 6*capacity+10; i++ {
				ts := now
				switch {
				case stream.late > 0 && (i == capacity || i < 4*capacity && src.Uint64()%stream.late == 0): // the tail is quiet
					ts = now - 1 - int64(src.Uint64()%200) // may predate everything retained
				case stream.equal > 0 && src.Uint64()%stream.equal == 0:
				default:
					now += 1 + int64(src.Uint64()%90)
					ts = now
				}
				was := r.ordered()
				r.append(Point{Unix: ts, PowerW: float64(i)})
				sawUnordered = sawUnordered || !r.ordered()
				reordered = reordered || (!was && r.ordered())
				requireRingReads(t, stream.name, src, r, base-200, now)
			}
			if stream.wantFlips && capacity > 1 && !(sawUnordered && reordered) {
				t.Errorf("%s, capacity %d: unordered seen %v, ordered again after it %v — the stream did not exercise both", stream.name, capacity, sawUnordered, reordered)
			}
			if !stream.wantFlips && sawUnordered {
				t.Errorf("%s, capacity %d: ring went unordered without a late arrival", stream.name, capacity)
			}
		}
	}
}

// windowRuns is what r.window yields on [from, hi], run by run.
func windowRuns(r *ring, from, hi int64) [][]Point {
	var runs [][]Point
	r.window(from, hi, func(run []Point) { runs = append(runs, slices.Clone(run)) })
	return runs
}

// TestRingGrowthMatchesFullLength: a ring that starts empty and doubles
// answers every read exactly as a ring allocated at its full length and
// fed the same appends — before, at and after each growth, with late
// arrivals on both sides of each growth point, and through the wrap.
// Through Append, the two stores export the same state.
func TestRingGrowthMatchesFullLength(t *testing.T) {
	const base = 1_700_000_000
	for _, limit := range []int{1, 3, 63, 64, 65, 100, 128, 129, 300} {
		// The lengths at which a growing ring is full and grows.
		growAt := map[int]bool{}
		for n := minRingAlloc; n < limit; n *= 2 {
			growAt[n] = true
		}
		cfg := Config{Shards: 2, RingLen: limit}
		grown, full := New(cfg), New(cfg)
		src := rng.New(uint64(limit))
		for node := 0; node < 3; node++ {
			full.nodeShard(node).nodes.put(node, mix(uint64(node)), &ring{buf: make([]Point, limit), limit: limit})
			now := int64(base)
			for i := 0; i < 3*limit+2; i++ {
				ts := now
				// Late just before a growth, at it, just after it, and
				// at random, by node.
				late := growAt[i] || growAt[i+1] || growAt[i-1] || src.Uint64()%(uint64(node)+5) == 0
				if node > 0 && late && i > 0 {
					ts = now - 1 - int64(src.Uint64()%150)
				} else {
					now += int64(src.Uint64() % 90)
					ts = now
				}
				batch := []trace.PowerSample{{Node: node, JobID: 1, Unix: ts, PowerW: float64(i)}}
				if err := grown.Append(batch); err != nil {
					t.Fatal(err)
				}
				if err := full.Append(batch); err != nil {
					t.Fatal(err)
				}
				g, f := grown.nodeShard(node).nodes.lookup(node), full.nodeShard(node).nodes.lookup(node)
				label := fmt.Sprintf("limit %d, node %d, append %d (buffer %d)", limit, node, i, len(g.buf))
				if len(g.buf) > limit || len(g.buf) < min(g.count, limit) {
					t.Fatalf("%s: %d points in a buffer of %d", label, g.count, len(g.buf))
				}
				if g.ordered() != f.ordered() || g.count != f.count {
					t.Fatalf("%s: ordered %v with %d points, full-length %v with %d", label, g.ordered(), g.count, f.ordered(), f.count)
				}
				gOld, gNew := g.segments()
				fOld, fNew := f.segments()
				if !slices.Equal(gOld, fOld) || !slices.Equal(gNew, fNew) {
					t.Fatalf("%s: segments %v %v, full-length %v %v", label, gOld, gNew, fOld, fNew)
				}
				for k := 0; k < 4; k++ {
					a, b := base-150+int64(src.Uint64()%uint64(now-base+300)), base-150+int64(src.Uint64()%uint64(now-base+300))
					from, hi := min(a, b), max(a, b)
					if gr, fr := windowRuns(g, from, hi), windowRuns(f, from, hi); !reflect.DeepEqual(gr, fr) {
						t.Fatalf("%s: window [%d, %d] yields %v, full-length %v", label, from, hi, gr, fr)
					}
					if g.countWindow(from, hi) != f.countWindow(from, hi) {
						t.Fatalf("%s: countWindow [%d, %d] %d, full-length %d", label, from, hi, g.countWindow(from, hi), f.countWindow(from, hi))
					}
				}
			}
		}
		if gs, fs := grown.ExportState(), full.ExportState(); !reflect.DeepEqual(gs, fs) {
			t.Fatalf("limit %d: the grown store exports %+v, the full-length one %+v", limit, gs, fs)
		}
	}
}

// TestRingOrderSurvivesRoundTrips: a ring rebuilt from its points — by
// ringOf, through the binary nodes section and RestoreState, through the
// legacy JSON state and InstallState — knows what the original knew
// about its order, reads the same windows, and goes on tracking.
func TestRingOrderSurvivesRoundTrips(t *testing.T) {
	const base = 1_700_000_000
	for seed := uint64(1); seed <= 12; seed++ {
		src := rng.New(seed)
		cfg := Config{Shards: 2, RingLen: 4 + int(src.Uint64()%12)}
		s := New(cfg)
		// Node n's stream has a late arrival every n+2 appends (node 0
		// none), and a different length: short, full and wrapped rings.
		for node := 0; node < 6; node++ {
			now := int64(base)
			for i := 0; i < 2+int(src.Uint64()%uint64(3*cfg.RingLen)); i++ {
				ts := now
				if node > 0 && i%(node+2) == node+1 {
					ts = now - 1 - int64(src.Uint64()%120)
				} else {
					now += int64(src.Uint64() % 90) // 0: an equal timestamp
					ts = now
				}
				if err := s.Append([]trace.PowerSample{{Node: node, JobID: 1, Unix: ts, PowerW: float64(i)}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := s.ExportState()
		viaBinary := roundTripNodes(t, st)
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		viaJSON := new(StoreState)
		if err := json.Unmarshal(raw, viaJSON); err != nil {
			t.Fatal(err)
		}
		for i, ns := range viaBinary.Nodes {
			if want := len(ns.Points) - lateIndex(ns.Points); ns.sinceLate != want {
				t.Fatalf("seed %d node %d: DecodeNodes derived sinceLate %d, the points say %d", seed, ns.Node, ns.sinceLate, want)
			}
			if viaJSON.Nodes[i].sinceLate != 0 {
				t.Fatalf("seed %d: a JSON state carries sinceLate %d", seed, viaJSON.Nodes[i].sinceLate)
			}
		}
		restored, installed, direct := New(cfg), New(cfg), New(cfg)
		if err := restored.RestoreState(viaBinary); err != nil {
			t.Fatal(err)
		}
		if err := installed.InstallState(viaJSON); err != nil {
			t.Fatal(err)
		}
		if err := direct.InstallState(s.ExportState()); err != nil {
			t.Fatal(err)
		}
		copies := map[string]*Store{"binary + RestoreState": restored, "JSON + InstallState": installed, "ExportState + InstallState": direct}
		for node := 0; node < 6; node++ {
			want := s.nodeShard(node).nodes.lookup(node)
			// The same appends keep all four in step, through the late
			// point's eviction.
			now := int64(base + 400*90)
			for i := 0; i <= cfg.RingLen; i++ {
				for label, got := range copies {
					have := got.nodeShard(node).nodes.lookup(node)
					if have.ordered() != want.ordered() || have.count != want.count {
						t.Fatalf("seed %d, %s, node %d, %d appends on: ordered %v with %d points, the original is %v with %d",
							seed, label, node, i, have.ordered(), have.count, want.ordered(), want.count)
					}
					requireRingReads(t, label, src, have, base-120, now)
					have.append(Point{Unix: now + 60, PowerW: -1})
				}
				now += 60
				want.append(Point{Unix: now, PowerW: -1})
			}
		}
	}
}

// BenchmarkRingWindow is the head half of a fleet-wide pull on one ring:
// the newest 360 of 1,440 one-minute points, found by search in an
// ordered ring and by the filter loop in one holding a late arrival.
func BenchmarkRingWindow(b *testing.B) {
	const base, n = 1_700_000_000, 1440
	build := func(late bool) *ring {
		r := newRing(n)
		for i := 0; i < n+n/2; i++ {
			r.append(Point{Unix: base + int64(i)*60, PowerW: float64(i % 300)})
		}
		if late {
			r.append(Point{Unix: base + 60, PowerW: 1})
		}
		return r
	}
	hi := int64(base + (n+n/2)*60)
	for _, c := range []struct {
		name string
		r    *ring
	}{{"ordered", build(false)}, {"late", build(true)}} {
		b.Run(c.name, func(b *testing.B) {
			vals := make([]float64, 0, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if vals = c.r.appendValues(vals[:0], hi-360*60, hi); len(vals) < 359 {
					b.Fatalf("%d values", len(vals))
				}
			}
		})
	}
}
