package tsdb

import (
	"math"
	"math/rand"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/core"
	"hpcpower/internal/rng"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

// benchFleet appends ticks one-minute ticks of a 1,024-node fleet at
// 0.1 W resolution to a store with a block store attached, sealing every
// 2 h window that ends by frontier, and returns the store.
func benchFleet(b *testing.B, ticks, frontier int64) *Store {
	const nodes = 1024
	s := New(DefaultConfig())
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
	for tick := int64(1); tick <= ticks; tick++ {
		unix := block.DefaultWindowSeconds + tick*60
		for n := range batch {
			w := math.Round(level[n]*(1+0.05*rng.NormFloat64())*10) / 10
			batch[n] = trace.PowerSample{Node: n, JobID: uint64(n/16 + 1), Unix: unix, PowerW: math.Max(w, 0)}
		}
		if err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
		if tick%360 == 0 || tick == ticks {
			if _, err := s.FlushBlocks(min(unix+60, frontier)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if s.BlockFrontier() != frontier {
		b.Fatalf("frontier %d, want %d", s.BlockFrontier(), frontier)
	}
	return s
}

// benchFleetStore holds 18 h of the fleet: the first 12 h sealed into
// 2 h blocks, the last 6 h in the head. No ring wraps.
func benchFleetStore(b *testing.B) (s *Store, frontier int64) {
	frontier = block.DefaultWindowSeconds + 12*3600
	return benchFleet(b, 18*60, frontier), frontier
}

// benchWrappedStore is query-mixed's data set: three days of the fleet
// through 1,440-point rings, which have wrapped twice, all but the last
// 12 h sealed.
func benchWrappedStore(b *testing.B) (s *Store, frontier int64) {
	frontier = block.DefaultWindowSeconds + 60*3600
	return benchFleet(b, 72*60, frontier), frontier
}

// pullCase is where a benchmarked pull's window starts.
type pullCase struct {
	name string
	from int64
}

// benchPulls times one fleet-wide 6 h distribution pull from each start
// (368,640 values counted and reduced, the work behind GET
// /v1/query/distribution). Each case runs twice: as named, finding the
// head's window tables the pull before it built, and -first, with every
// window's generation bumped before each pull, as an append into each
// would: the pull finds its tables stale and builds them again.
func benchPulls(b *testing.B, s *Store, cases []pullCase) {
	const sixHours = 6*3600 - 60
	for _, c := range cases {
		for _, first := range []bool{false, true} {
			name := c.name
			if first {
				name += "-first"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if first {
						for i := range s.heads.gens {
							s.heads.gens[i].Add(1)
						}
					}
					tally := stats.GetTally()
					ok, _, err := s.TallyValues(tally, c.from, c.from+sixHours)
					if d := core.DistFromCounts(tally.Sorted()); !ok || err != nil || d.N != 1024*360 {
						b.Fatalf("counted %v: %d values, err %v", ok, d.N, err)
					}
					stats.PutTally(tally)
				}
			})
		}
	}
}

// BenchmarkDistribution pulls 6 h of the 18 h store with the window in
// blocks only, straddling the flush frontier, and in the head only.
// "blocks" is three whole blocks, all answered from their value tables —
// the best case; the -unaligned windows start mid-block, as query-mixed's
// do, so the block the start cuts goes by complement against its table
// and the one the end cuts is decoded. "head" starts a minute into a head
// window, so that window is read in place and the other two come from
// the head's tables once a pull has built them.
func BenchmarkDistribution(b *testing.B) {
	s, f := benchFleetStore(b)
	benchPulls(b, s, []pullCase{
		{"blocks", f - 8*3600},
		{"blocks-unaligned", f - 8*3600 + 37*60},
		{"straddling", f - 3*3600},
		{"straddling-unaligned", f - 3*3600 - 17*60},
		{"head", f + 60},
	})
}

// BenchmarkDistributionWrapped pulls 6 h of the three-day store whose
// rings have wrapped, query-mixed's shape, from starts placed as its
// dashboards place them: mid-block, across the frontier, and in the head
// 3 h 17 min above it — two head windows cut and two read from tables.
func BenchmarkDistributionWrapped(b *testing.B) {
	s, f := benchWrappedStore(b)
	benchPulls(b, s, []pullCase{
		{"blocks-unaligned", f - 20*3600 + 37*60},
		{"straddling-unaligned", f - 3*3600 - 17*60},
		{"head-unaligned", f + 3*3600 + 17*60},
	})
}

// benchAgentBatches lays a 1,024-node fleet out as two agents of 512
// distinct nodes each, every job on a contiguous run of nodes — runLen
// picks each run's length — and returns one batch per agent. This is the
// shape ship and bench/powbench/fleet.go emit: one batch is one tick of
// one agent, grouped by job.
func benchAgentBatches(runLen func(*rand.Rand) int) [2][]trace.PowerSample {
	const agentNodes = 512
	rng := rand.New(rand.NewSource(42))
	var batches [2][]trace.PowerSample
	job := uint64(0)
	for a := range batches {
		end := (a + 1) * agentNodes
		for node := a * agentNodes; node < end; {
			job++
			n := min(runLen(rng), end-node)
			for ; n > 0; n-- {
				w := math.Round((90+rng.Float64()*170)*10) / 10
				batches[a] = append(batches[a], trace.PowerSample{Node: node, JobID: job, PowerW: w})
				node++
			}
		}
	}
	return batches
}

// benchAppendTicks appends one batch per iteration, the agents taking
// turns and the clock moving one minute per tick, into a store that has
// already seen more ticks than a job's open-minute window holds — so
// rings and jobs exist and every tick closes a minute: steady state.
func benchAppendTicks(b *testing.B, batches [2][]trace.PowerSample) {
	s := New(DefaultConfig())
	tick := int64(0)
	appendTick := func() {
		batch := batches[tick%2]
		unix := 1_700_000_040 + tick/2*60
		for i := range batch {
			batch[i].Unix = unix
		}
		if err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
		tick++
	}
	for tick < 2*(spatialWindowMinutes+4) {
		appendTick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendTick()
	}
}

// BenchmarkAppendFleet is Append on the fleet's own batches: jobs on
// contiguous runs of 1–64 nodes.
func BenchmarkAppendFleet(b *testing.B) {
	benchAppendTicks(b, benchAgentBatches(func(r *rand.Rand) int { return 1 + r.Intn(64) }))
}

// BenchmarkAppendInterleaved is the same fleet with every job on one
// node, so no two neighbouring samples share a job: the worst case for
// Append's per-run job pass, which then locks and looks up per sample.
func BenchmarkAppendInterleaved(b *testing.B) {
	benchAppendTicks(b, benchAgentBatches(func(*rand.Rand) int { return 1 }))
}

// crashImageRecords is the sample content of the WAL the crash-restart
// benchmark replays (internal/serve's writeCrashImage): 1,000 records,
// the two agents of 512 nodes taking turns a tick each, every job on 16
// contiguous nodes, 0.1 W readings about each node's level.
func crashImageRecords() [][]trace.PowerSample {
	const agentNodes, records = 512, 1000
	src := rng.New(42)
	level := make([]float64, 2*agentNodes)
	for n := range level {
		level[n] = 90 + 170*src.Float64()
	}
	out := make([][]trace.PowerSample, records)
	for r := range out {
		agent, tick := r%2, int64(r/2)
		samples := make([]trace.PowerSample, agentNodes)
		for i := range samples {
			n := agent*agentNodes + i
			w := math.Round(level[n]*(1+0.05*src.Norm())*10) / 10
			samples[i] = trace.PowerSample{Node: n, JobID: uint64(n/16 + 1), Unix: 1_700_000_040 + tick*60, PowerW: math.Max(w, 0)}
		}
		out[r] = samples
	}
	return out
}

// BenchmarkAppendReplay is the apply side of a crash restart: a fresh
// store fed the crash image's records in log order, so every node's ring
// is made and grows, every job is made, and each node's first sample
// writes its job's node set. AppendFleet is the steady state it ends in.
func BenchmarkAppendReplay(b *testing.B) {
	records := crashImageRecords()
	samples := 0
	for _, rec := range records {
		samples += len(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(DefaultConfig())
		for _, rec := range records {
			if err := s.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}
