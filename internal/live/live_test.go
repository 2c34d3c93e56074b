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
			w := math.Round((100+float64(n%97)+float64(unix%1740)/29)*10) / 10
			batch[n] = trace.PowerSample{Node: n, JobID: uint64(n/8 + 1), Unix: unix, PowerW: w}
			values = append(values, w)
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
