package tsdb

import (
	"math"
	"slices"
	"sync"
	"testing"

	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

func sample(node int, job uint64, unix int64, w float64) trace.PowerSample {
	return trace.PowerSample{Node: node, JobID: job, Unix: unix, PowerW: w}
}

func TestAppendAndNodeSeries(t *testing.T) {
	s := New(Config{Shards: 4, RingLen: 8})
	var batch []trace.PowerSample
	for i := 0; i < 5; i++ {
		batch = append(batch, sample(7, 1, int64(1000+60*i), float64(100+i)))
	}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	got := s.NodeSeries(7, 0, 0)
	if len(got) != 5 {
		t.Fatalf("got %d points, want 5", len(got))
	}
	for i, p := range got {
		if p.Unix != int64(1000+60*i) || p.PowerW != float64(100+i) {
			t.Errorf("point %d = %+v", i, p)
		}
	}
	// Time-window query.
	win := s.NodeSeries(7, 1060, 1180)
	if len(win) != 3 {
		t.Errorf("window returned %d points, want 3", len(win))
	}
	// Unknown node: empty, non-nil.
	if pts := s.NodeSeries(99, 0, 0); pts == nil || len(pts) != 0 {
		t.Errorf("unknown node = %v", pts)
	}
}

func TestRingEviction(t *testing.T) {
	s := New(Config{Shards: 1, RingLen: 4})
	for i := 0; i < 10; i++ {
		if err := s.Append([]trace.PowerSample{sample(1, 1, int64(60*(i+1)), float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	pts := s.NodeSeries(1, 0, 0)
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want 4", len(pts))
	}
	// Oldest retained must be sample 6 (0..9, capacity 4).
	if pts[0].PowerW != 6 || pts[3].PowerW != 9 {
		t.Errorf("retained window = %v", pts)
	}
}

func TestAppendRejectsMalformed(t *testing.T) {
	s := New(DefaultConfig())
	err := s.Append([]trace.PowerSample{
		sample(1, 1, 1000, 100),
		{Node: -1, JobID: 1, Unix: 1000, PowerW: 10},
	})
	if err == nil {
		t.Fatal("want error on malformed sample")
	}
	// Batch is rejected whole: nothing ingested.
	if s.Ingested() != 0 {
		t.Errorf("ingested %d after rejected batch", s.Ingested())
	}
}

// TestJobPowerMatchesOffline checks that the incremental per-job
// characterization equals an offline pass over the same samples: with
// the median and p95 bit for bit for readings on the 0.1 W grid, and
// within half a 0.2 W bucket for readings off it.
func TestJobPowerMatchesOffline(t *testing.T) {
	t.Run("0.1 W", func(t *testing.T) { testJobPowerMatchesOffline(t, true) })
	t.Run("off grid", func(t *testing.T) { testJobPowerMatchesOffline(t, false) })
}

func testJobPowerMatchesOffline(t *testing.T, onGrid bool) {
	s := New(Config{Shards: 8, RingLen: 512})
	// A 3-node job with 40 minutes of samples, deterministic shape.
	const nodes, mins = 3, 40
	var all []float64
	var batch []trace.PowerSample
	base := int64(1700000000) - int64(1700000000)%60
	for m := 0; m < mins; m++ {
		for n := 0; n < nodes; n++ {
			w := 120 + 10*math.Sin(float64(m)/5) + 3*float64(n)
			if onGrid {
				w = math.Round(w*10) / 10
			}
			all = append(all, w)
			batch = append(batch, sample(n, 42, base+int64(60*m), w))
		}
	}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	st, ok := s.JobPower(42)
	if !ok {
		t.Fatal("job 42 not found")
	}
	mean, maxW := stats.Mean(all), slices.Max(all)
	if st.Samples != int64(len(all)) || st.Nodes != nodes {
		t.Fatalf("samples=%d nodes=%d", st.Samples, st.Nodes)
	}
	close := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	close("mean", st.MeanW, mean, 1e-9)
	close("std", st.StdW, stats.Std(all), 1e-9)
	close("min", st.MinW, slices.Min(all), 0)
	close("max", st.MaxW, maxW, 0)
	wantOvershoot := 100 * (maxW - mean) / mean
	close("overshoot", st.PeakOvershootPct, wantOvershoot, 1e-9)
	// Every minute has spread exactly 3·(nodes−1) = 6 W.
	close("spatial spread", st.AvgSpatialSpreadW, 6, 1e-9)
	close("spread pct", st.SpatialSpreadPct, 100*6/mean, 1e-9)
	if st.FirstUnix != base || st.LastUnix != base+int64(60*(mins-1)) {
		t.Errorf("window [%d, %d]", st.FirstUnix, st.LastUnix)
	}
	// On the grid the median and p95 are the offline ones, bit for bit;
	// off it the job is coarse and they are within half a bucket.
	if got := s.CoarseJobs(); got != int64(b2i(!onGrid)) {
		t.Errorf("coarse jobs = %d, on grid %v", got, onGrid)
	}
	for _, q := range []struct {
		name string
		got  float64
		p    float64
	}{{"median", st.MedianW, 0.5}, {"p95", st.P95W, 0.95}} {
		want := stats.Quantile(all, q.p)
		if onGrid && math.Float64bits(q.got) != math.Float64bits(want) {
			t.Errorf("%s = %v, offline %v", q.name, q.got, want)
		}
		if !onGrid {
			close(q.name, q.got, want, 0.1+1e-9)
		}
	}
}

func TestIdleSamplesSkipJobAnalytics(t *testing.T) {
	s := New(DefaultConfig())
	if err := s.Append([]trace.PowerSample{sample(3, 0, 1000, 50)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.JobPower(0); ok {
		t.Error("job 0 (idle) must not be tracked")
	}
	if got := len(s.Jobs()); got != 0 {
		t.Errorf("jobs = %d, want 0", got)
	}
	if len(s.NodeSeries(3, 0, 0)) != 1 {
		t.Error("idle sample must still land in the node series")
	}
}

func TestSummarizeMergesShards(t *testing.T) {
	s := New(Config{Shards: 8, RingLen: 64})
	var all []float64
	var batch []trace.PowerSample
	for n := 0; n < 50; n++ {
		for m := 0; m < 10; m++ {
			w := float64(80 + n + m)
			all = append(all, w)
			batch = append(batch, sample(n, uint64(n%5+1), int64(60000+60*m), w))
		}
	}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	sum := s.Summarize()
	if sum.Samples != int64(len(all)) || sum.Nodes != 50 || sum.Jobs != 5 {
		t.Fatalf("summary = %+v", sum)
	}
	if math.Abs(sum.MeanW-stats.Mean(all)) > 1e-9 || math.Abs(sum.StdW-stats.Std(all)) > 1e-9 {
		t.Errorf("merged moments %v/%v, want %v/%v", sum.MeanW, sum.StdW, stats.Mean(all), stats.Std(all))
	}
	if sum.MinW != slices.Min(all) || sum.MaxW != slices.Max(all) {
		t.Errorf("merged extrema [%v, %v]", sum.MinW, sum.MaxW)
	}
}

// TestConcurrentIngestAndQuery hammers the store from parallel writers
// and readers; run under -race this is the shard-locking proof.
func TestConcurrentIngestAndQuery(t *testing.T) {
	s := New(Config{Shards: 8, RingLen: 128})
	const writers, readers, batches = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var batch []trace.PowerSample
				for n := 0; n < 16; n++ {
					batch = append(batch, sample(w*16+n, uint64(w+1), int64(60*(b+1)), 100+float64(n)))
				}
				if err := s.Append(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.NodeSeries(i%64, 0, 0)
				s.JobPower(uint64(i%4 + 1))
				s.Summarize()
			}
		}(r)
	}
	wg.Wait()
	if got, want := s.Ingested(), int64(writers*batches*16); got != want {
		t.Errorf("ingested %d, want %d", got, want)
	}
}
