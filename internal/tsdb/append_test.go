package tsdb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
)

// refStore is the oracle of TestAppendMatchesReference: a Store driven
// by the Append this package had before a batch was sorted by shard and
// folded one job run at a time — a map of index lists per batch, one
// lock and one lookup per sample, and each job's open minutes in a map
// (open) that is searched whole for the oldest. Everything else is the
// Store's own state, so both sides export through the same code.
type refStore struct {
	*Store
	open map[uint64]map[int64]*minuteAgg
}

func newRefStore(cfg Config) *refStore {
	return &refStore{Store: New(cfg), open: map[uint64]map[int64]*minuteAgg{}}
}

func (r *refStore) appendReference(batch []trace.PowerSample) error {
	s := r.Store
	for i, smp := range batch {
		if err := smp.Validate(); err != nil {
			return fmt.Errorf("tsdb: sample %d: %w", i, err)
		}
	}
	byShard := map[uint64][]int{}
	for i, smp := range batch {
		k := mix(uint64(smp.Node)) & s.mask
		byShard[k] = append(byShard[k], i)
	}
	for k, idxs := range byShard {
		sh := &s.shards[k]
		sh.mu.Lock()
		for _, i := range idxs {
			smp := batch[i]
			rg := sh.nodes[smp.Node]
			if rg == nil {
				rg = newRing(s.ringLen)
				sh.nodes[smp.Node] = rg
				s.memBytes.Add(s.ringBytes())
			}
			rg.buf[rg.head] = Point{Unix: smp.Unix, PowerW: smp.PowerW}
			rg.head = (rg.head + 1) % len(rg.buf)
			if rg.count < len(rg.buf) {
				rg.count++
			}
			sh.acc.Add(smp.PowerW)
		}
		sh.mu.Unlock()
	}
	for _, smp := range batch {
		if smp.JobID == 0 {
			continue
		}
		js := s.jobShard(smp.JobID)
		js.mu.Lock()
		st := js.jobs[smp.JobID]
		if st == nil {
			st = newJobState()
			js.jobs[smp.JobID] = st
			s.memBytes.Add(jobStateBytes)
			r.open[smp.JobID] = map[int64]*minuteAgg{}
		}
		r.addReference(st, r.open[smp.JobID], smp.Node, smp.Unix, smp.PowerW)
		js.mu.Unlock()
	}
	s.ingested.Add(int64(len(batch)))
	return nil
}

func (r *refStore) addReference(j *jobState, open map[int64]*minuteAgg, node int, unix int64, w float64) {
	j.acc.Add(w)
	j.med.Add(w)
	j.p95.Add(w)
	j.fp.Update(unix, w)
	j.nodes[node] = struct{}{}
	if j.firstUnix == 0 || unix < j.firstUnix {
		j.firstUnix = unix
	}
	if unix > j.lastUnix {
		j.lastUnix = unix
	}

	minute := unix / 60
	m := open[minute]
	if m == nil {
		m = &minuteAgg{minute: minute, min: w, max: w}
		open[minute] = m
		if len(open) > spatialWindowMinutes {
			oldest := int64(math.MaxInt64)
			for k := range open {
				if k < oldest {
					oldest = k
				}
			}
			j.foldMinute(open[oldest])
			delete(open, oldest)
		}
	} else {
		if w < m.min {
			m.min = w
		}
		if w > m.max {
			m.max = w
		}
	}
	m.n++

	// Show the window to the Store's readers, ascending as they fold it.
	j.nMinutes = 0
	for _, m := range open {
		j.minutes[j.nMinutes] = *m
		j.nMinutes++
	}
	sort.Slice(j.minutes[:j.nMinutes], func(a, b int) bool { return j.minutes[a].minute < j.minutes[b].minute })
}

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

// TestAppendMatchesReference: after every batch of seeded random
// sequences, a store fed through Append and one fed through the
// per-sample reference answer byte for byte the same, and a batch with
// a malformed sample changes nothing on either side.
func TestAppendMatchesReference(t *testing.T) {
	src := rng.New(17)
	for trial, cfg := range []Config{
		{Shards: 1, RingLen: 8},
		{Shards: 3, RingLen: 40},
		{Shards: 16, RingLen: 200},
		{Shards: 64, RingLen: 24},
	} {
		got, want := New(cfg), newRefStore(cfg)
		before := storeImage(t, got)
		for b, c := range genAppendSequence(src, 40) {
			errGot, errWant := got.Append(c.samples), want.appendReference(c.samples)
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) || (errGot == nil) != (c.bad < 0) {
				t.Fatalf("trial %d batch %d (bad sample %d): Append says %v, reference %v", trial, b, c.bad, errGot, errWant)
			}
			after := storeImage(t, got)
			if c.bad >= 0 && string(after) != string(before) {
				t.Fatalf("trial %d batch %d: rejected batch changed the store", trial, b)
			}
			if ref := storeImage(t, want.Store); string(after) != string(ref) {
				t.Fatalf("trial %d batch %d (%d samples): stores diverge\n got %s\nwant %s", trial, b, len(c.samples), after, ref)
			}
			if got.MemoryBytes() != want.MemoryBytes() {
				t.Fatalf("trial %d batch %d: MemoryBytes %d, reference %d", trial, b, got.MemoryBytes(), want.MemoryBytes())
			}
			before = after
		}
	}
}

// TestAppendImageOfParent pins the image one seeded sequence leaves
// behind to the hash the commit before the rewrite (e41a829) produced
// for it — Append and the job fold changed how they work, not one byte
// of what they compute. A change that means to alter the exported state
// re-pins this after TestAppendMatchesReference has passed.
func TestAppendImageOfParent(t *testing.T) {
	s := New(Config{Shards: 8, RingLen: 64})
	for _, c := range genAppendSequence(rng.New(2024), 60) {
		_ = s.Append(c.samples) // the malformed ones are part of the sequence
	}
	sum := sha256.Sum256(storeImage(t, s))
	const parent = "83fb113dfd813e60d38b3f9adcba875fb525d7c6041b37796cdd78d7237ac6f1"
	if got := hex.EncodeToString(sum[:]); got != parent {
		t.Fatalf("store image hashes to %s, the parent's to %s", got, parent)
	}
}

// TestAppendSteadyStateAllocs: on a store that knows the batch's nodes
// and jobs, Append allocates nothing — grouped or interleaved.
func TestAppendSteadyStateAllocs(t *testing.T) {
	for name, jobOf := range map[string]func(i int) uint64{
		"grouped":     func(i int) uint64 { return uint64(i/32 + 1) },
		"interleaved": func(i int) uint64 { return uint64(i%16 + 1) },
	} {
		batch := make([]trace.PowerSample, 512)
		for i := range batch {
			batch[i] = trace.PowerSample{Node: i, JobID: jobOf(i), PowerW: 100 + float64(i%50)}
		}
		s := New(DefaultConfig())
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
		for tick < spatialWindowMinutes+2 {
			appendTick()
		}
		if allocs := testing.AllocsPerRun(50, appendTick); allocs != 0 {
			t.Errorf("%s batch: %v allocs per Append, want 0", name, allocs)
		}
	}
}

// TestAppendConcurrentSharedJobs: writers whose batches share jobs (and
// nodes) append beside readers of everything Append touches; run under
// -race. Counts are order-free, so they must equal a serial control's.
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

	if s.Ingested() != control.Ingested() || s.MemoryBytes() != control.MemoryBytes() {
		t.Fatalf("ingested %d (%d bytes), serial control %d (%d bytes)", s.Ingested(), s.MemoryBytes(), control.Ingested(), control.MemoryBytes())
	}
	got, want := s.Summarize(), control.Summarize()
	if got.Samples != want.Samples || got.Nodes != want.Nodes || got.Jobs != want.Jobs || got.MinW != want.MinW || got.MaxW != want.MaxW {
		t.Fatalf("summary %+v, serial control %+v", got, want)
	}
	for _, id := range control.Jobs() {
		g, _ := s.JobPower(id)
		w, _ := control.JobPower(id)
		if g.Samples != w.Samples || g.Nodes != w.Nodes || g.FirstUnix != w.FirstUnix || g.LastUnix != w.LastUnix || g.MinW != w.MinW || g.MaxW != w.MaxW {
			t.Fatalf("job %d: %+v, serial control %+v", id, g, w)
		}
	}
}
