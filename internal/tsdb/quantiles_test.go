package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"hpcpower/internal/rng"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

// jobReadings draws one job's readings: at the 0.1 W resolution around a
// level, and — coarse — either with a reading off the grid or spanning
// more than a table's 204.8 W.
func jobReadings(src *rng.Source, n int, coarse bool) []trace.PowerSample {
	level := 90 + 240*src.Float64()
	wide := coarse && src.Intn(2) == 0
	out := make([]trace.PowerSample, n)
	for i := range out {
		w := level * (1 + 0.05*src.Norm())
		if wide {
			w = 30 + 400*src.Float64()
		}
		out[i] = trace.PowerSample{Node: i % 16, JobID: 7, Unix: 1_700_000_000 + int64(i/16)*60, PowerW: math.Max(0, math.Round(w*10)/10)}
	}
	if coarse && !wide {
		out[src.Intn(n)].PowerW += 0.01
	}
	return out
}

// TestJobQuantilesOrderFree: however a job's readings are batched and
// shuffled, its median and p95 come out the same — bit for bit the
// offline quantiles for readings on the 0.1 W grid, and within half a
// bucket of them, inside [min, max], for a coarse table.
func TestJobQuantilesOrderFree(t *testing.T) {
	src := rng.New(31)
	for trial := 0; trial < 40; trial++ {
		coarse := trial%4 == 3
		readings := jobReadings(src, 1+src.Intn(3000), coarse)
		values := make([]float64, len(readings))
		for i, r := range readings {
			values[i] = r.PowerW
		}
		var first JobStats
		for order := 0; order < 6; order++ {
			samples := append([]trace.PowerSample(nil), readings...)
			if order > 0 {
				src.Shuffle(len(samples), func(i, k int) { samples[i], samples[k] = samples[k], samples[i] })
			}
			s := New(Config{Shards: 4, RingLen: 16})
			for rest := samples; len(rest) > 0; {
				n := min(len(rest), 1+src.Intn(700))
				if err := s.Append(rest[:n]); err != nil {
					t.Fatal(err)
				}
				rest = rest[n:]
			}
			got, _ := s.JobPower(7)
			if order == 0 {
				first = got
			} else if math.Float64bits(got.MedianW) != math.Float64bits(first.MedianW) || math.Float64bits(got.P95W) != math.Float64bits(first.P95W) {
				t.Fatalf("trial %d order %d: median %v p95 %v, first order gave %v %v", trial, order, got.MedianW, got.P95W, first.MedianW, first.P95W)
			}
			table := &s.jobShard(7).jobs[7].table
			if table.coarse() != coarse || s.CoarseJobs() != int64(b2i(coarse)) {
				t.Fatalf("trial %d: coarse %v, store counts %d, want %v", trial, table.coarse(), s.CoarseJobs(), coarse)
			}
			for _, q := range []struct {
				got, p float64
			}{{got.MedianW, 0.5}, {got.P95W, 0.95}} {
				want := stats.Quantile(values, q.p)
				half := float64(int64(1)<<table.shift) / 20
				switch {
				case !coarse && math.Float64bits(q.got) != math.Float64bits(want):
					t.Fatalf("trial %d: q%v = %v, offline %v", trial, q.p, q.got, want)
				case coarse && (math.Abs(q.got-want) > half+1e-9 || q.got < got.MinW || q.got > got.MaxW):
					t.Fatalf("trial %d: coarse q%v = %v, offline %v, half a bucket %v, range [%v, %v]", trial, q.p, q.got, want, half, got.MinW, got.MaxW)
				}
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTablesSurviveStateRoundTrip: exact and coarse tables survive a
// round trip of the store's state through JSON, and a store restored
// from it continues the stream exactly as the original does.
func TestTablesSurviveStateRoundTrip(t *testing.T) {
	src := rng.New(9)
	s := New(Config{Shards: 4, RingLen: 32})
	for job := uint64(1); job <= 6; job++ {
		readings := jobReadings(src, 1+src.Intn(500), job%2 == 0)
		for i := range readings {
			readings[i].JobID = job
		}
		if err := s.Append(readings); err != nil {
			t.Fatal(err)
		}
	}
	a, err := json.Marshal(s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var got StoreState
	if err := json.Unmarshal(a, &got); err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(&got); !bytes.Equal(a, b) {
		t.Fatalf("decoded state marshals to\n%s\nwant\n%s", b, a)
	}
	r := New(Config{Shards: 4, RingLen: 32})
	if err := r.RestoreState(&got); err != nil {
		t.Fatal(err)
	}
	if r.CoarseJobs() != 3 {
		t.Fatalf("restored store counts %d coarse jobs, want 3", r.CoarseJobs())
	}
	for job := uint64(1); job <= 6; job++ {
		more := jobReadings(src, 200, false)
		for i := range more {
			more[i].JobID = job
		}
		if err := s.Append(more); err != nil {
			t.Fatal(err)
		}
		if err := r.Append(more); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := analyticsImage(t, r), analyticsImage(t, s); !bytes.Equal(got, want) {
		t.Fatalf("restored store diverged:\n got %s\nwant %s", got, want)
	}
}

// TestTableFromStateRejectsCorruption: where a table's buckets lie, and
// what they add up to, is checked against the job on restore.
func TestTableFromStateRejectsCorruption(t *testing.T) {
	for name, tc := range map[string]*TableState{
		"bucket past codes":          {Lo: maxCode, Counts: []uint32{3}},
		"bucket past codes at shift": {Shift: 1, Lo: maxCode >> 1, Counts: []uint32{3}},
		"shift past":                 {Shift: 60, Counts: []uint32{3}},
		"negative lo":                {Lo: -1, Counts: []uint32{3}},
		"sum mismatch":               {Lo: 5, Counts: []uint32{2}},
	} {
		if _, err := tableFromState(tc, 3); err == nil {
			t.Errorf("%s: table %+v restored", name, tc)
		}
	}
	if _, err := tableFromState(&TableState{Lo: 1500, Counts: []uint32{2, 0, 1}}, 3); err != nil {
		t.Errorf("a good table: %v", err)
	}
}
