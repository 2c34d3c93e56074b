package serve

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"hpcpower/internal/gen"
	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/wal"
)

// BenchmarkJobHistory measures what a store's finished jobs cost it as
// they pile up: a fleet of 1,024 nodes runs 4-node, 60-minute jobs back
// to back until 3 k, 25 k and 80 k jobs have run (12, 96 and 312 hours),
// each job's readings a window of the Emmy workload's (internal/gen).
// Reported per job count: the store's accounted bytes, the snapshot
// payload's bytes per job, and per snapshot the ExportState hold (the
// time the apply lock is held), the encode, and a whole clean restart
// (RecoverClean). Building the fleet is outside the timer; the 80 k
// case holds ≈ 0.5 GB.
func BenchmarkJobHistory(b *testing.B) {
	ds, err := gen.Generate(gen.EmmyConfig(0.02, 42))
	if err != nil {
		b.Fatal(err)
	}
	// The readings node by node, as the benchmark has always drawn them.
	var ids []uint64
	for id := range ds.Series {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var pool []float64
	for _, id := range ids {
		for _, ns := range ds.Series[id] {
			pool = append(pool, ns.Power...)
		}
	}
	for _, jobs := range []int{3 * 1024, 24 * 1024, 78 * 1024} {
		b.Run(fmt.Sprintf("jobs=%dk", (jobs+512)/1000), func(b *testing.B) {
			store := jobHistoryStore(b, pool, jobs)
			dedup := tsdb.NewDeduper(tsdb.DedupConfig{}).ExportState()
			var img *snapshotImage
			var payload []byte
			var hold, encode, recover time.Duration
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				img = &snapshotImage{Store: store.ExportState(), Dedup: dedup}
				t1 := time.Now()
				if payload, err = encodeSnapshotImage(img); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				if err := wal.WriteSnapshot(dir, uint64(i+1), payload); err != nil {
					b.Fatal(err)
				}
				t3 := time.Now()
				s, err := NewDurable(tsdb.New(tsdb.DefaultConfig()), nil, DefaultConfig(), DurabilityConfig{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Recover(); err != nil {
					b.Fatal(err)
				}
				t4 := time.Now()
				crash(b, s, httptest.NewServer(s.Handler()))
				hold, encode, recover = hold+t1.Sub(t0), encode+t2.Sub(t1), recover+t4.Sub(t3)
			}
			ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(float64(store.MemoryBytes()), "accounted_B")
			b.ReportMetric(float64(len(payload))/float64(jobs), "payload_B/job")
			b.ReportMetric(ms(hold), "export_ms")
			b.ReportMetric(ms(encode), "encode_ms")
			b.ReportMetric(ms(recover), "recover_ms")
		})
	}
}

// jobHistoryStore ingests the fleet's first jobs jobs, a minute of all
// 1,024 nodes a batch.
func jobHistoryStore(b *testing.B, pool []float64, jobs int) *tsdb.Store {
	b.Helper()
	const nodes, perJob, minutes = 1024, 4, 60
	const slots = nodes / perJob
	store := tsdb.New(tsdb.DefaultConfig())
	src := rng.New(15)
	offset := make([]int, slots)
	batch := make([]trace.PowerSample, nodes)
	for round := 0; round < jobs/slots; round++ {
		for slot := range offset {
			offset[slot] = src.Intn(len(pool))
		}
		for m := 0; m < minutes; m++ {
			unix := 1_700_000_040 + int64(round*minutes+m)*60
			for n := range batch {
				slot := n / perJob
				w := pool[(offset[slot]+n%perJob*minutes+m)%len(pool)]
				batch[n] = trace.PowerSample{Node: n, JobID: uint64(round*slots + slot + 1), Unix: unix, PowerW: w}
			}
			if err := store.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	return store
}
