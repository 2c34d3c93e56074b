package tsdb

import (
	"math"
	"math/rand"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

// benchFleetStore holds 18 h of a 1,024-node fleet at one sample per
// node per minute, 0.1 W resolution: the first 12 h sealed into 2 h
// blocks, the last 6 h in the head.
func benchFleetStore(b *testing.B) (s *Store, frontier int64) {
	const nodes, hours = 1024, 18
	s = New(DefaultConfig())
	bs, err := block.Open(block.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	s.AttachBlocks(bs)
	rng := rand.New(rand.NewSource(42))
	level := make([]float64, nodes)
	for n := range level {
		level[n] = 90 + rng.Float64()*260
	}
	batch := make([]trace.PowerSample, nodes)
	for tick := int64(1); tick <= hours*60; tick++ {
		for n := range batch {
			w := math.Round(level[n]*(1+0.05*rng.NormFloat64())*10) / 10
			batch[n] = trace.PowerSample{Node: n, JobID: uint64(n/16 + 1), Unix: block.DefaultWindowSeconds + tick*60, PowerW: math.Max(w, 0)}
		}
		if err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	frontier = block.DefaultWindowSeconds + 12*3600
	if _, err := s.FlushBlocks(frontier + 60); err != nil {
		b.Fatal(err)
	}
	if s.BlockFrontier() != frontier {
		b.Fatalf("frontier %d, want %d", s.BlockFrontier(), frontier)
	}
	return s, frontier
}

// BenchmarkDistribution measures one fleet-wide 6 h distribution pull
// (368,640 values gathered and sorted, the work behind GET
// /v1/query/distribution) with the window in blocks only, straddling
// the flush frontier, and in the head only.
func BenchmarkDistribution(b *testing.B) {
	s, f := benchFleetStore(b)
	const sixHours = 6*3600 - 60
	for _, c := range []struct {
		name string
		from int64
	}{{"blocks", f - 8*3600}, {"straddling", f - 3*3600}, {"head", f + 60}} {
		b.Run(c.name, func(b *testing.B) {
			var vals []float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				vals, _, err = s.AppendValuesMerged(vals[:0], nil, c.from, c.from+sixHours)
				if err != nil || len(vals) != 1024*360 {
					b.Fatalf("pulled %d values, err %v", len(vals), err)
				}
				stats.SortFloat64s(vals)
			}
		})
	}
}
