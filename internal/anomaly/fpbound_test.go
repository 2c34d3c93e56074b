package anomaly_test

import (
	"testing"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/gen"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

// TestDefaultRulesZeroFalsePositives is the false-positive bound from
// the issue: replaying the fault-free synthetic paper workload (the
// same generator, system, and seed the anomaly smoke uses for its clean
// control) through the default rule set fires nothing. Every job in
// that dataset is healthy by construction — phased, noisy, and inside
// the paper's overshoot envelope — so any alert here is a detector
// threshold regression. The fingerprints are a tsdb store's, so a
// multi-node job's trend folds its minutes as it does in powserved.
func TestDefaultRulesZeroFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset synthesis is seconds of work; skipped in -short")
	}
	ds, err := gen.Generate(gen.EmmyConfig(0.02, 42))
	if err != nil {
		t.Fatal(err)
	}
	samples := trace.FlattenSeries(ds)
	if len(samples) == 0 {
		t.Fatal("generator returned no retained series")
	}
	store := tsdb.New(tsdb.Config{})
	eng := anomaly.NewEngine(anomaly.Config{Lookup: store.JobFingerprint})
	defer eng.Close()
	// Feed in the shipper's batch size and order: store first, then the
	// engine, as the serving layer does.
	for off := 0; off < len(samples); off += 512 {
		batch := samples[off:min(off+512, len(samples))]
		if err := store.Append(batch); err != nil {
			t.Fatal(err)
		}
		eng.ObserveBatch(batch, "clean")
	}
	if n := store.LateSamples(); n != 0 {
		t.Fatalf("%d of %d samples came late: the trend did not see the workload", n, len(samples))
	}

	if evs := eng.Events(anomaly.Filter{Node: -1}); len(evs) != 0 {
		for _, ev := range evs {
			fp, _ := eng.Fingerprint(ev.Job)
			t.Errorf("false positive: %s %s job %d (value %.3f threshold %.3f) fp={n %d relstd %.4f overshoot %.1f%% runlen %d drift %.3f}",
				ev.Type, ev.Rule, ev.Job, ev.Value, ev.Threshold,
				fp.N, fp.RelStdFast(), fp.OvershootPct(), fp.RunLen, fp.DriftFrac())
		}
		t.Fatalf("fault-free workload produced %d alert events, want 0 (%d jobs, %d samples)",
			len(evs), len(ds.Series), len(samples))
	}
	st := eng.Snapshot()
	if st.Samples != int64(len(samples)) || st.Evals == 0 {
		t.Fatalf("engine did not observe the workload: %+v", st)
	}
}
