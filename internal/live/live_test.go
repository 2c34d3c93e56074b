package live

import (
	"math"
	"reflect"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/core"
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

func TestSamplePowerMatchesDistFromValues(t *testing.T) {
	s, values := fleetStore(t, 40)
	got, degraded, err := SamplePower(s, 0, 0)
	if err != nil || degraded {
		t.Fatalf("degraded %v, err %v", degraded, err)
	}
	if want := core.DistFromValues(values); !reflect.DeepEqual(got, want) {
		t.Fatalf("SamplePower = %+v\nwant %+v", got, want)
	}
	in, err := Collect(s, "emmy", 0)
	if err != nil || !reflect.DeepEqual(in.SamplePower, got) || in.Frontier != 4*testWindow {
		t.Fatalf("Collect: sample power %+v at frontier %d, err %v", in.SamplePower, in.Frontier, err)
	}

	// Late samples in the head: every third ring now holds points out of
	// time order and is filtered point by point, the others are searched.
	// A window inside the head must hold the same readings either way.
	from, to := int64(4*testWindow+600), int64(4*testWindow+4200)
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
	var window []float64
	for unix := from; unix <= to; unix += 60 { // from is on a tick
		for n := 0; n < 40; n++ {
			window = append(window, reading(n, unix))
		}
	}
	for _, smp := range late {
		values = append(values, smp.PowerW)
		if smp.Unix >= from && smp.Unix <= to {
			window = append(window, smp.PowerW)
		}
	}
	for _, c := range []struct {
		from, to int64
		values   []float64
	}{{0, 0, values}, {from, to, window}} {
		got, degraded, err := SamplePower(s, c.from, c.to)
		if err != nil || degraded {
			t.Fatalf("[%d, %d] with late samples: degraded %v, err %v", c.from, c.to, degraded, err)
		}
		if want := core.DistFromValues(c.values); !reflect.DeepEqual(got, want) {
			t.Fatalf("[%d, %d] with late samples: SamplePower has n %d, mean %v, p95 %v, want n %d, mean %v, p95 %v (or the CDFs differ)",
				c.from, c.to, got.N, got.Mean, got.P95, want.N, want.Mean, want.P95)
		}
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
