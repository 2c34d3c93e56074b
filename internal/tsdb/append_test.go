package tsdb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
)

// storeImage is everything a store answers, serialized: the exported
// state, analyticsImage's summary and job characterizations, and every
// job's fingerprint.
func storeImage(t *testing.T, s *Store) []byte {
	t.Helper()
	out, err := json.Marshal(s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	out = append(append(out, '\n'), analyticsImage(t, s)...)
	for _, id := range s.Jobs() {
		fp, _ := s.JobFingerprint(id)
		buf, err := json.Marshal(fp)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, '\n'), buf...)
	}
	return out
}

// appendCase is one batch of a generated sequence; bad ≥ 0 marks the
// index of a sample made malformed, which must reject the whole batch.
type appendCase struct {
	samples []trace.PowerSample
	bad     int
}

// genAppendSequence draws a sequence of batches that between them take
// every road through Append: jobs grouped in runs, interleaved per
// sample and in shuffled order; idle samples; one-sample batches; a
// batch larger than the pooled scratch keeps; late samples that open
// minutes out of order, some older than a full window; rings that wrap;
// and a malformed sample at a random index.
func genAppendSequence(src *rng.Source, nBatches int) []appendCase {
	const nodes, jobs = 96, 12
	cases := make([]appendCase, 0, nBatches)
	huge := src.Intn(nBatches)
	for b := 0; b < nBatches; b++ {
		n := 1 + src.Intn(200)
		switch {
		case b == huge:
			n = maxPooledOrder + 1 + src.Intn(100)
		case src.Intn(8) == 0:
			n = 1
		}
		now := int64(1_700_000_000) + int64(b)*60
		shape := src.Intn(3)
		samples := make([]trace.PowerSample, n)
		for i := range samples {
			job := uint64(i % jobs) // interleaved: a new job every sample
			if shape != 0 {
				job = uint64(i * jobs / n) // grouped: contiguous runs
			}
			if src.Intn(16) == 0 {
				job = 0
			}
			unix := now + int64(src.Intn(60))
			if src.Intn(12) == 0 {
				unix -= 60 * int64(src.Intn(3*spatialWindowMinutes))
			}
			samples[i] = trace.PowerSample{
				Node:   src.Intn(nodes),
				JobID:  job,
				Unix:   unix,
				PowerW: math.Round((80+350*src.Float64())*10) / 10,
			}
		}
		if shape == 2 {
			src.Shuffle(n, func(i, k int) { samples[i], samples[k] = samples[k], samples[i] })
		}
		c := appendCase{samples: samples, bad: -1}
		if src.Intn(6) == 0 {
			c.bad = src.Intn(n)
			switch src.Intn(3) {
			case 0:
				samples[c.bad].Node = -1
			case 1:
				samples[c.bad].Unix = 0
			default:
				samples[c.bad].PowerW = math.NaN()
			}
		}
		cases = append(cases, c)
	}
	return cases
}

// TestAppendImageOfParent pins the image one seeded sequence leaves
// behind. The hash was first taken at the commit before Append was
// rewritten (e41a829) and held through the rewrite; it was re-pinned once
// when count tables replaced the P² estimators, after checking that the
// image with the tables stripped hashes as the old one did with its
// estimators (and median_w / p95_w) stripped, once more when exact
// moments and the minute-folded trend replaced Welford and the
// per-sample fingerprint, after checking that the image with the
// moments, the trend, the fold frontier, late count and unfolded minutes
// stripped is the old one with its accumulators and fingerprints stripped, and that every job's and
// the summary's analytics moved by at most 5.2e-13, and once more when
// the open-minute window took the unfolded minutes' place and a trend's
// first variance stopped being scaled by alphaVar, after checking that
// with the old scaling the image with its minutes reduced to their
// extremes and counts and the job's moments left out is the old one so
// reduced, with the unfolded minutes and late count left out.
// A change that means to alter the exported state re-pins it; any other
// must leave it alone.
func TestAppendImageOfParent(t *testing.T) {
	s := New(Config{Shards: 8, RingLen: 64})
	for _, c := range genAppendSequence(rng.New(2024), 60) {
		_ = s.Append(c.samples) // the malformed ones are part of the sequence
	}
	sum := sha256.Sum256(storeImage(t, s))
	const pinned = "28ac6777e463a95b535eed51a39e9d6ce59e2c0ff4309566e9ba4b7efe6e2401"
	if got := hex.EncodeToString(sum[:]); got != pinned {
		t.Fatalf("store image hashes to %s, pinned %s", got, pinned)
	}
}

// TestAppendSteadyStateAllocs: on a store that knows the batch's nodes
// and jobs, whose rings have grown to their length, and whose jobs'
// readings stay within the span their tables already cover, Append
// allocates nothing — grouped or interleaved. (The race detector drains
// sync.Pool at random, which the scratch comes from.)
func TestAppendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	for name, jobOf := range map[string]func(i int) uint64{
		"grouped":     func(i int) uint64 { return uint64(i/32 + 1) },
		"interleaved": func(i int) uint64 { return uint64(i%16 + 1) },
	} {
		batch := make([]trace.PowerSample, 512)
		for i := range batch {
			batch[i] = trace.PowerSample{Node: i, JobID: jobOf(i), PowerW: 100 + float64(i%50)}
		}
		cfg := Config{Shards: 16, RingLen: 64}
		s := New(cfg)
		tick := int64(0)
		appendTick := func() {
			tick++
			for i := range batch {
				batch[i].Unix = 1_700_000_000 + tick*60
			}
			if err := s.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		for tick < max(spatialWindowMinutes+2, int64(cfg.RingLen)+1) {
			appendTick()
		}
		if allocs := testing.AllocsPerRun(50, appendTick); allocs != 0 {
			t.Errorf("%s batch: %v allocs per Append, want 0", name, allocs)
		}
	}
}

// TestAppendConcurrentSharedJobs: writers whose batches share jobs (and
// nodes) append beside readers of everything Append touches; run under
// -race. Counts and quantiles are order-free, so they must equal a serial
// control's.
func TestAppendConcurrentSharedJobs(t *testing.T) {
	const writers, perWriter = 4, 30
	cfg := Config{Shards: 4, RingLen: 64}
	batches := make([][]appendCase, writers)
	control := New(cfg)
	for w := range batches {
		batches[w] = genAppendSequence(rng.New(uint64(100+w)), perWriter)
		for _, c := range batches[w] {
			_ = control.Append(c.samples)
		}
	}

	s := New(cfg)
	stop := make(chan struct{})
	var readers, wg sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id := uint64(1); id < 12; id++ {
				s.JobPower(id)
				s.JobFingerprint(id)
			}
			s.Summarize()
			s.ExportState()
		}
	}()
	for w := range batches {
		wg.Add(1)
		go func(cases []appendCase) {
			defer wg.Done()
			for _, c := range cases {
				if err := s.Append(c.samples); (err == nil) != (c.bad < 0) {
					t.Errorf("Append of a batch with bad sample %d: %v", c.bad, err)
				}
			}
		}(batches[w])
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if s.Ingested() != control.Ingested() {
		t.Fatalf("ingested %d, serial control %d", s.Ingested(), control.Ingested())
	}
	// How a table grew depends on the order its readings came in; the
	// account must still be what the store holds.
	accounted := s.MemoryBytes()
	if s.recountMem(); s.MemoryBytes() != accounted {
		t.Fatalf("MemoryBytes %d, recounted %d", accounted, s.MemoryBytes())
	}
	got, want := s.Summarize(), control.Summarize()
	if got.Samples != want.Samples || got.Nodes != want.Nodes || got.Jobs != want.Jobs || got.MinW != want.MinW || got.MaxW != want.MaxW {
		t.Fatalf("summary %+v, serial control %+v", got, want)
	}
	for _, id := range control.Jobs() {
		g, _ := s.JobPower(id)
		w, _ := control.JobPower(id)
		if g.Samples != w.Samples || g.Nodes != w.Nodes || g.FirstUnix != w.FirstUnix || g.LastUnix != w.LastUnix || g.MinW != w.MinW || g.MaxW != w.MaxW || g.MedianW != w.MedianW || g.P95W != w.P95W {
			t.Fatalf("job %d: %+v, serial control %+v", id, g, w)
		}
	}
}

// TestAppendConcurrentJobChange: writers append the same nodes at once,
// each under jobs of its own, and every node changes job half way: the
// rings' job memos flip between writers while their job passes run. Each
// round's samples of a node are one reading at one time, so the order
// the writers' batches land in changes nothing the store keeps, and the
// image — node sets above all — must equal the writers' batches applied
// one after another. Run it under -race too.
func TestAppendConcurrentJobChange(t *testing.T) {
	const writers, rounds, nodes = 4, spatialWindowMinutes, 64
	batch := func(w, round int) []trace.PowerSample {
		var out []trace.PowerSample
		for n := 0; n < nodes; n++ {
			if (n+w+round)%5 == 0 {
				continue
			}
			job := uint64(1 + (n/8+w)%5)
			if round >= rounds/2 {
				job += 5
			}
			out = append(out, trace.PowerSample{Node: n, JobID: job, Unix: 1_700_000_040 + int64(round)*60, PowerW: 150})
		}
		return out
	}
	cfg := Config{Shards: 4, RingLen: writers * rounds}
	serial, concurrent := New(cfg), New(cfg)
	spans := map[uint64]map[int]bool{}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			for _, smp := range batch(w, round) {
				if spans[smp.JobID] == nil {
					spans[smp.JobID] = map[int]bool{}
				}
				spans[smp.JobID][smp.Node] = true
			}
			if err := serial.Append(batch(w, round)); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(b []trace.PowerSample) {
				defer wg.Done()
				if err := concurrent.Append(b); err != nil {
					t.Error(err)
				}
			}(batch(w, round))
		}
		wg.Wait()
	}
	if got, want := storeImage(t, concurrent), storeImage(t, serial); string(got) != string(want) {
		t.Fatalf("concurrent image differs from the serial one\n got: %s\nwant: %s", got, want)
	}
	for id, span := range spans {
		if st, _ := concurrent.JobPower(id); st.Nodes != len(span) || len(span) == nodes {
			t.Errorf("job %d spans %d nodes, its samples came from %d of %d", id, st.Nodes, len(span), nodes)
		}
	}
}
