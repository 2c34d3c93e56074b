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

// appendTables writes st's tables section as a version-2 image held it.
func appendTables(st *StoreState) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(st.Jobs)))
	var entries []stats.ValueCount
	for i := range st.Jobs {
		t := st.Jobs[i].Table
		entries = entries[:0]
		for j, c := range t.Counts {
			if c != 0 {
				entries = append(entries, stats.ValueCount{V: float64(t.Lo + int64(j)), N: uint64(c)})
			}
		}
		enc, _ := block.AppendTable(nil, entries)
		dst = binary.LittleEndian.AppendUint32(append(dst, t.Shift), uint32(len(enc)))
		dst = append(dst, enc...)
	}
	return dst
}

// TestTablesSectionRoundTrip: exact and coarse tables survive a
// version-2 image's tables section, and a store restored from the decoded state continues
// the stream exactly as the original does.
func TestTablesSectionRoundTrip(t *testing.T) {
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
	st := s.ExportState()
	got := *st
	got.Jobs = append([]JobStateExport(nil), st.Jobs...)
	for i := range got.Jobs {
		got.Jobs[i].Table = nil
	}
	if err := got.DecodeTables(appendTables(st)); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(st)
	b, _ := json.Marshal(&got)
	if !bytes.Equal(a, b) {
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

// TestTablesSectionRejectsCorruption: every structural lie in the tables
// section is an error that leaves the jobs as they were.
func TestTablesSectionRejectsCorruption(t *testing.T) {
	job := func(n int64) JobStateExport { return JobStateExport{ID: 4, Acc: stats.AccumState{N: n}} }
	entry := func(shift byte, table []stats.ValueCount) []byte {
		enc, _ := block.AppendTable(nil, table)
		b := binary.LittleEndian.AppendUint32([]byte{shift}, uint32(len(enc)))
		return append(b, enc...)
	}
	section := func(count uint64, entries ...[]byte) []byte {
		b := binary.AppendUvarint(nil, count)
		for _, e := range entries {
			b = append(b, e...)
		}
		return b
	}
	ok := entry(0, []stats.ValueCount{{V: 1500, N: 2}, {V: 1502, N: 1}})
	for name, tc := range map[string]struct {
		in   []byte
		n    int64
		want string
	}{
		"count mismatch":      {section(2, ok), 3, "bad table count"},
		"cut short":           {section(1, ok[:3]), 3, "cut short"},
		"table over bytes":    {section(1, ok[:len(ok)-1]), 3, "bytes left"},
		"counts off":          {section(1, ok), 4, "value table counts 3 samples"},
		"no table":            {section(1, entry(0, nil)), 3, "no table for 3 samples"},
		"fractional bucket":   {section(1, entry(0, []stats.ValueCount{{V: 150.5, N: 3}})), 3, "in bucket 150.5"},
		"span over the cap":   {section(1, entry(1, []stats.ValueCount{{V: 10, N: 1}, {V: 10 + MaxTableBuckets, N: 2}})), 3, "buckets"},
		"count past a uint32": {section(1, entry(0, []stats.ValueCount{{V: 1, N: 1 << 32}})), 1 << 32, "samples in bucket"},
		"trailing bytes":      {append(section(1, ok), 0), 3, "after the last table"},
	} {
		st := &StoreState{Jobs: []JobStateExport{job(tc.n)}}
		err := st.DecodeTables(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
		if st.Jobs[0].Table != nil {
			t.Errorf("%s: a rejected section left a table behind", name)
		}
	}
	st := &StoreState{Jobs: []JobStateExport{job(3)}}
	if err := st.DecodeTables(section(1, ok)); err != nil || st.Jobs[0].Table.Lo != 1500 || len(st.Jobs[0].Table.Counts) != 3 {
		t.Fatalf("a good section: %v, table %+v", err, st.Jobs[0].Table)
	}

	// Where the buckets lie, and what they add up to, is checked against
	// the job on restore, for a table from the section or from JSON.
	past := &StoreState{Jobs: []JobStateExport{job(3)}}
	if err := past.DecodeTables(section(1, entry(0, []stats.ValueCount{{V: maxCode, N: 3}}))); err != nil {
		t.Fatalf("a section with a bucket past the codes: %v", err)
	}
	for name, tc := range map[string]*TableState{
		"bucket past codes":          past.Jobs[0].Table,
		"bucket past codes at shift": {Shift: 1, Lo: maxCode >> 1, Counts: []uint32{3}},
		"shift past":                 {Shift: 60, Counts: []uint32{3}},
		"negative lo":                {Lo: -1, Counts: []uint32{3}},
		"sum mismatch":               {Lo: 5, Counts: []uint32{2}},
	} {
		if _, err := tableFromState(tc, 3); err == nil {
			t.Errorf("%s: table %+v restored", name, tc)
		}
	}
}
