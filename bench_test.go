package hpcpower_test

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its experiment and reports the reproduced headline
// numbers as custom benchmark metrics, so `go test -bench` output doubles
// as the paper-vs-measured record (see EXPERIMENTS.md).
//
// Benchmarks run on cached datasets at benchScale of the five-month study
// window; run cmd/powreport -scale 1 for the full-scale reproduction.

import (
	"bytes"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hpcpower"
	"hpcpower/internal/anomaly"
	"hpcpower/internal/apps"
	"hpcpower/internal/cluster"
	"hpcpower/internal/core"
	"hpcpower/internal/mlearn"
	"hpcpower/internal/policy"
	"hpcpower/internal/serve"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

// benchScale keeps a single bench iteration around a week of trace.
const benchScale = 0.05

var (
	benchOnce   sync.Once
	benchEmmy   *trace.Dataset
	benchMeggie *trace.Dataset
)

func benchData(b *testing.B) (*trace.Dataset, *trace.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		if benchEmmy, err = hpcpower.GenerateEmmy(benchScale, 42); err != nil {
			b.Fatal(err)
		}
		if benchMeggie, err = hpcpower.GenerateMeggie(benchScale, 42); err != nil {
			b.Fatal(err)
		}
	})
	if benchEmmy == nil || benchMeggie == nil {
		b.Fatal("bench dataset generation failed earlier")
	}
	return benchEmmy, benchMeggie
}

// BenchmarkGenerateDataset measures end-to-end synthesis of one day of
// Emmy trace (scheduler + telemetry for ~350 jobs on 560 nodes).
func BenchmarkGenerateDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := hpcpower.GenerateEmmy(1.0/151, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Specs regenerates Table 1.
func BenchmarkTable1Specs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range cluster.Systems() {
			if err := s.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(cluster.Emmy().NodeTDP), "emmy_tdp_W")
	b.ReportMetric(float64(cluster.Meggie().NodeTDP), "meggie_tdp_W")
}

// BenchmarkFig1SystemUtilization regenerates Fig. 1 (paper: Emmy 87%,
// Meggie 80%).
func BenchmarkFig1SystemUtilization(b *testing.B) {
	emmy, meggie := benchData(b)
	var ae, am core.SystemAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		if ae, err = core.AnalyzeSystem(emmy); err != nil {
			b.Fatal(err)
		}
		if am, err = core.AnalyzeSystem(meggie); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ae.MeanUtilizationPct, "emmy_util_pct")
	b.ReportMetric(am.MeanUtilizationPct, "meggie_util_pct")
}

// BenchmarkFig2PowerUtilization regenerates Fig. 2 (paper: Emmy 69%
// never >85%, Meggie 51% never >70%; stranded power >30%).
func BenchmarkFig2PowerUtilization(b *testing.B) {
	emmy, meggie := benchData(b)
	var ae, am core.SystemAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		if ae, err = core.AnalyzeSystem(emmy); err != nil {
			b.Fatal(err)
		}
		if am, err = core.AnalyzeSystem(meggie); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ae.MeanPowerUtilPct, "emmy_power_pct")
	b.ReportMetric(ae.PeakPowerUtilPct, "emmy_peak_pct")
	b.ReportMetric(am.MeanPowerUtilPct, "meggie_power_pct")
	b.ReportMetric(am.PeakPowerUtilPct, "meggie_peak_pct")
}

// BenchmarkFig3PerNodePowerPDF regenerates Fig. 3 (paper: Emmy mean
// 149 W / std 39 W; Meggie mean 114 W / std 20 W).
func BenchmarkFig3PerNodePowerPDF(b *testing.B) {
	emmy, meggie := benchData(b)
	var de, dm core.PowerDistribution
	var err error
	for i := 0; i < b.N; i++ {
		if de, err = core.AnalyzePowerDistribution(emmy); err != nil {
			b.Fatal(err)
		}
		if dm, err = core.AnalyzePowerDistribution(meggie); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(de.Summary.Mean, "emmy_mean_W")
	b.ReportMetric(de.Summary.Std, "emmy_std_W")
	b.ReportMetric(dm.Summary.Mean, "meggie_mean_W")
	b.ReportMetric(dm.Summary.Std, "meggie_std_W")
}

// BenchmarkFig4ApplicationPower regenerates Fig. 4 (per-app power on both
// systems; the MD-0/FASTEST ranking flip).
func BenchmarkFig4ApplicationPower(b *testing.B) {
	emmy, meggie := benchData(b)
	var flips [][2]string
	for i := 0; i < b.N; i++ {
		ae := core.AnalyzeAppPower(emmy, apps.KeyApps)
		am := core.AnalyzeAppPower(meggie, apps.KeyApps)
		flips = core.RankingFlips(ae, am)
	}
	b.ReportMetric(float64(len(flips)), "ranking_flips")
}

// BenchmarkTable2Correlations regenerates Table 2 (paper Spearman: Emmy
// length 0.42 / size 0.21; Meggie length 0.12 / size 0.42).
func BenchmarkTable2Correlations(b *testing.B) {
	emmy, meggie := benchData(b)
	var ce, cm core.CorrelationTable
	var err error
	for i := 0; i < b.N; i++ {
		if ce, err = core.AnalyzeCorrelations(emmy); err != nil {
			b.Fatal(err)
		}
		if cm, err = core.AnalyzeCorrelations(meggie); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ce.Length.R, "emmy_len_rho")
	b.ReportMetric(ce.Size.R, "emmy_size_rho")
	b.ReportMetric(cm.Length.R, "meggie_len_rho")
	b.ReportMetric(cm.Size.R, "meggie_size_rho")
}

// BenchmarkFig5LengthSizeSplits regenerates Fig. 5 (longer/larger jobs
// draw more per-node power; Emmy short 65% vs long 75% of TDP).
func BenchmarkFig5LengthSizeSplits(b *testing.B) {
	emmy, _ := benchData(b)
	var s core.LengthSizeSplits
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = core.AnalyzeLengthSizeSplits(emmy); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.Short.MeanTDPPct, "short_tdp_pct")
	b.ReportMetric(s.Long.MeanTDPPct, "long_tdp_pct")
	b.ReportMetric(s.Small.MeanTDPPct, "small_tdp_pct")
	b.ReportMetric(s.Large.MeanTDPPct, "large_tdp_pct")
}

// BenchmarkFig7TemporalVariation regenerates Figs. 6-7 (paper: mean peak
// overshoot ~10-12%; >70% of jobs ~0% of runtime >10% above mean).
func BenchmarkFig7TemporalVariation(b *testing.B) {
	emmy, _ := benchData(b)
	var t core.TemporalAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = core.AnalyzeTemporal(emmy); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t.MeanOvershootPct, "mean_overshoot_pct")
	b.ReportMetric(t.FracJobsNearZeroPct, "jobs_near_zero_pct")
	b.ReportMetric(t.MeanTemporalCVPct, "mean_temporal_cv_pct")
}

// BenchmarkFig9SpatialSpread regenerates Figs. 8-9 (paper: mean spread
// ~20 W, ~15% of per-node power).
func BenchmarkFig9SpatialSpread(b *testing.B) {
	emmy, _ := benchData(b)
	var s core.SpatialAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = core.AnalyzeSpatial(emmy); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.MeanSpreadW, "mean_spread_W")
	b.ReportMetric(s.MeanSpreadPct, "mean_spread_pct")
	b.ReportMetric(s.MeanPctTimeAboveAvg, "time_above_avg_pct")
}

// BenchmarkFig10EnergySpread regenerates Fig. 10 (paper: 20% of jobs with
// >15% node-energy difference).
func BenchmarkFig10EnergySpread(b *testing.B) {
	emmy, _ := benchData(b)
	var s core.SpatialAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = core.AnalyzeSpatial(emmy); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.FracJobsEnergyAbove15, "jobs_above15_pct")
	b.ReportMetric(s.EnergySpreadSizeCorr.R, "size_corr_rho")
}

// BenchmarkFig11UserConcentration regenerates Fig. 11 (paper: top 20% of
// users hold ~85% of node-hours and energy, ~90% overlap).
func BenchmarkFig11UserConcentration(b *testing.B) {
	emmy, _ := benchData(b)
	var u core.UserConcentration
	var err error
	for i := 0; i < b.N; i++ {
		if u, err = core.AnalyzeUserConcentration(emmy); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(u.Top20NodeHoursPct, "top20_nodehours_pct")
	b.ReportMetric(u.Top20EnergyPct, "top20_energy_pct")
	b.ReportMetric(u.OverlapPct, "overlap_pct")
}

// BenchmarkFig12UserVariability regenerates Fig. 12 (paper: per-user
// power std ~50% Emmy, ~100% Meggie; ours is directionally lower — see
// EXPERIMENTS.md).
func BenchmarkFig12UserVariability(b *testing.B) {
	emmy, meggie := benchData(b)
	var ve, vm core.UserVariability
	var err error
	for i := 0; i < b.N; i++ {
		if ve, err = core.AnalyzeUserVariability(emmy); err != nil {
			b.Fatal(err)
		}
		if vm, err = core.AnalyzeUserVariability(meggie); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ve.MeanPowerStdPct, "emmy_user_std_pct")
	b.ReportMetric(vm.MeanPowerStdPct, "meggie_user_std_pct")
}

// BenchmarkFig13ClusterVariability regenerates Fig. 13 (paper: 61.7% of
// Emmy (user,nodes) clusters below 10% power std).
func BenchmarkFig13ClusterVariability(b *testing.B) {
	emmy, _ := benchData(b)
	var cv core.ClusterVariability
	var err error
	for i := 0; i < b.N; i++ {
		if cv, err = core.AnalyzeClusterVariability(emmy); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cv.ByNodes.FracBelow10Pct, "bynodes_below10_pct")
	b.ReportMetric(cv.ByWalltime.FracBelow10Pct, "bywall_below10_pct")
}

// BenchmarkFig14PredictionError regenerates Fig. 14 (paper: BDT best with
// 90% of predictions <10% error; FLDA worst on Emmy).
func BenchmarkFig14PredictionError(b *testing.B) {
	emmy, _ := benchData(b)
	samples := mlearn.SamplesFromDataset(emmy)
	cfg := mlearn.EvalConfig{Reps: 3, Seed: 7}
	var results []mlearn.EvalResult
	var err error
	for i := 0; i < b.N; i++ {
		if results, err = mlearn.EvaluateAll(samples, cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		switch r.Model {
		case "BDT":
			b.ReportMetric(r.FracBelow10, "bdt_below10_pct")
			b.ReportMetric(r.FracBelow5Pct, "bdt_below5_pct")
		case "KNN":
			b.ReportMetric(r.FracBelow10, "knn_below10_pct")
		case "FLDA":
			b.ReportMetric(r.FracBelow10, "flda_below10_pct")
		}
	}
}

// BenchmarkFig15PerUserError regenerates Fig. 15 (paper: 90% of users
// with <5% mean error; scale-sensitive, see EXPERIMENTS.md).
func BenchmarkFig15PerUserError(b *testing.B) {
	emmy, _ := benchData(b)
	samples := mlearn.SamplesFromDataset(emmy)
	cfg := mlearn.EvalConfig{Reps: 3, Seed: 7}
	var res mlearn.EvalResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = mlearn.Evaluate(samples, func() mlearn.Model { return mlearn.NewBDT(mlearn.DefaultTreeParams()) }, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FracUsersBelow5, "users_below5_pct")
}

// BenchmarkStrandedPower regenerates the §3 headline (>30% stranded).
func BenchmarkStrandedPower(b *testing.B) {
	emmy, meggie := benchData(b)
	var ae, am core.SystemAnalysis
	var err error
	for i := 0; i < b.N; i++ {
		if ae, err = core.AnalyzeSystem(emmy); err != nil {
			b.Fatal(err)
		}
		if am, err = core.AnalyzeSystem(meggie); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ae.StrandedPowerPct, "emmy_stranded_pct")
	b.ReportMetric(am.StrandedPowerPct, "meggie_stranded_pct")
}

// BenchmarkPolicyCapSweep regenerates the §6 power-cap exploration.
func BenchmarkPolicyCapSweep(b *testing.B) {
	emmy, _ := benchData(b)
	var safe policy.CapResult
	var err error
	for i := 0; i < b.N; i++ {
		if _, err = policy.CapSweep(emmy, 0.5, 1.0, 26); err != nil {
			b.Fatal(err)
		}
		if safe, err = policy.SafeCap(emmy, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*safe.CapFrac, "safe_cap_pct")
	b.ReportMetric(safe.HarvestedW/1000, "harvested_kW")
}

// --- Ablation benches: the design choices DESIGN.md calls out ---

// BenchmarkAblationBackfill contrasts EASY backfill with pure FCFS: the
// scheduler design choice behind the >80% utilization regime.
func BenchmarkAblationBackfill(b *testing.B) {
	emmy, _ := benchData(b)
	var easyWait, fcfsWait float64
	for i := 0; i < b.N; i++ {
		easy, err := hpcpower.Replay(emmy, hpcpower.ReplayScenario{})
		if err != nil {
			b.Fatal(err)
		}
		fcfs, err := hpcpower.Replay(emmy, hpcpower.ReplayScenario{DisableBackfill: true})
		if err != nil {
			b.Fatal(err)
		}
		// The replayed workload is fixed, so delivered node-hours match;
		// backfill shows up as shorter queue waits.
		easyWait, fcfsWait = easy.Waits.MeanWaitMin, fcfs.Waits.MeanWaitMin
	}
	b.ReportMetric(easyWait, "easy_wait_min")
	b.ReportMetric(fcfsWait, "fcfs_wait_min")
}

// BenchmarkAblationFeatures re-runs the BDT with feature subsets: how
// much each of the three pre-execution features contributes.
func BenchmarkAblationFeatures(b *testing.B) {
	emmy, _ := benchData(b)
	samples := mlearn.SamplesFromDataset(emmy)
	cfg := mlearn.EvalConfig{Reps: 2, Seed: 7}
	var results []mlearn.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		if results, err = mlearn.EvaluateAblation(samples, cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		switch r.Features.String() {
		case "user":
			b.ReportMetric(r.Result.FracBelow10, "user_only_below10")
		case "user+nodes+wall":
			b.ReportMetric(r.Result.FracBelow10, "full_below10")
		case "nodes+wall":
			b.ReportMetric(r.Result.FracBelow10, "no_user_below10")
		}
	}
}

// BenchmarkAblationTreeParams sweeps the BDT's depth: the paper's result
// must not hinge on hyper-parameter tuning.
func BenchmarkAblationTreeParams(b *testing.B) {
	emmy, _ := benchData(b)
	samples := mlearn.SamplesFromDataset(emmy)
	cfg := mlearn.EvalConfig{Reps: 2, Seed: 7}
	var grid []mlearn.GridPoint
	var err error
	for i := 0; i < b.N; i++ {
		if grid, err = mlearn.GridSearchBDT(samples, []int{6, 12, 22}, []int{1}, cfg); err != nil {
			b.Fatal(err)
		}
	}
	if len(grid) > 0 {
		b.ReportMetric(grid[0].Result.FracBelow10, "best_below10")
		b.ReportMetric(grid[len(grid)-1].Result.FracBelow10, "worst_below10")
	}
}

// BenchmarkProvisioningStrategies regenerates the §7 static-vs-dynamic
// comparison.
func BenchmarkProvisioningStrategies(b *testing.B) {
	emmy, _ := benchData(b)
	var cmp hpcpower.ProvisioningComparison
	var err error
	for i := 0; i < b.N; i++ {
		if cmp, err = hpcpower.CompareProvisioning(emmy, 0.15, 10); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range cmp.Results {
		switch r.Strategy {
		case "TDP":
			b.ReportMetric(r.OverProvisionPct, "tdp_overprov_pct")
		case "Static":
			b.ReportMetric(r.OverProvisionPct, "static_overprov_pct")
		case "Dynamic":
			b.ReportMetric(r.OverProvisionPct, "dynamic_overprov_pct")
		}
	}
	b.ReportMetric(cmp.StaticVsDynamicGapPct, "static_vs_dynamic_gap")
}

// BenchmarkIngestBatch measures the tsdb write hot path: one 512-sample
// batch appended to a sharded store (the per-node rings plus the per-job
// incremental analytics), reporting sustained samples/s.
func BenchmarkIngestBatch(b *testing.B) {
	store := tsdb.New(tsdb.Config{Shards: 16, RingLen: 1440})
	ingestBatchLoop(b, store, nil)
}

// ingestBatchLoop is the shared body of the ingest benchmarks: b.N
// 512-sample batches appended to a fresh sharded store, with observe
// (nil to disable) called on each batch after the append — exactly the
// serving layer's ingest-worker sequence.
func ingestBatchLoop(b *testing.B, store *tsdb.Store, observe func([]trace.PowerSample)) {
	b.Helper()
	const batchSize = 512
	batch := make([]trace.PowerSample, batchSize)
	for i := range batch {
		batch[i] = trace.PowerSample{
			Node:   i % 64,
			JobID:  uint64(i%8 + 1),
			Unix:   60,
			PowerW: 100 + float64(i%50),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Advance time so rings rotate like live telemetry.
		t := int64(60 * (i + 1))
		for j := range batch {
			batch[j].Unix = t
		}
		if err := store.Append(batch); err != nil {
			b.Fatal(err)
		}
		if observe != nil {
			observe(batch)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*batchSize/elapsed, "samples/s")
	}
}

// BenchmarkIngestBatchDetectors is BenchmarkIngestBatch with the
// anomaly engine evaluating the default rule set against every job in
// every batch — the full detection hot path riding the write path.
// Compare with BenchmarkIngestBatch to see the detection overhead;
// TestDetectorOverheadBound pins it against a reference kernel.
func BenchmarkIngestBatchDetectors(b *testing.B) {
	store := tsdb.New(tsdb.Config{Shards: 16, RingLen: 1440})
	eng := anomaly.NewEngine(anomaly.Config{Lookup: store.JobFingerprint})
	defer eng.Close()
	ingestBatchLoop(b, store, func(batch []trace.PowerSample) {
		eng.ObserveBatch(batch, "")
	})
}

// splitmixKernel runs n dependent splitmix64 steps from x: a fixed piece
// of arithmetic whose time measures the machine, not the repository.
func splitmixKernel(x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		x += 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

var splitmixSink uint64 // keeps the kernel's result live

// detectorKernelRatio bounds the engine's cost per sample in kernel steps.
// Single trials measured 2.4–3.2 on an idle machine and 2.0–3.3 beside two
// spinning processes (one machine, a step ≈ 4 ns there), so 4.5 leaves
// 1.4× over the healthy maximum: the old 12 ns/sample was 3 steps, inside
// that spread.
const detectorKernelRatio = 4.5

// TestDetectorOverheadBound asserts the detection hot path costs at
// most detectorKernelRatio reference-kernel steps per ingested sample:
// the per-sample fingerprint fold is already part of the store's append
// (and allocation-free, see anomaly.TestFingerprintUpdateAllocFree), so
// the engine only adds per-batch job grouping and rule evaluation —
// 7–13 ns/sample on this batch (a new job every sample, so grouping is a
// map lookup per sample), 2 to 3.3 kernel steps.
//
// The bound has been two other things. As 5 % of BenchmarkIngestBatch it
// would have failed the engine for the store getting faster (Append went
// from 90–100 µs to about 53 µs per batch). As an absolute 12 ns/sample
// it failed whenever both cores were busy (20.7 ns in a loaded run). So
// each batch's engine call is followed by one kernel step per sample,
// both are timed, and the bound is on the ratio: a busy or slow machine
// stretches both, a slower engine only one, and unlike Append the kernel
// does not get faster. Timing is still noisy, so the bound takes the
// best of a few trials and only then fails.
func TestDetectorOverheadBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing comparison")
	}
	measure := func() (detectNs, kernelNs, restNs float64) {
		var spent, kernel time.Duration
		var samples int
		res := testing.Benchmark(func(b *testing.B) {
			store := tsdb.New(tsdb.Config{Shards: 16, RingLen: 1440})
			eng := anomaly.NewEngine(anomaly.Config{Lookup: store.JobFingerprint})
			defer eng.Close()
			spent, kernel, samples = 0, 0, 0
			ingestBatchLoop(b, store, func(batch []trace.PowerSample) {
				start := time.Now()
				eng.ObserveBatch(batch, "")
				mid := time.Now()
				splitmixSink = splitmixKernel(splitmixSink, len(batch))
				spent += mid.Sub(start)
				kernel += time.Since(mid)
				samples += len(batch)
			})
		})
		perSample := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(samples) }
		return perSample(spent), perSample(kernel), perSample(res.T - spent - kernel)
	}
	const trials = 5
	best := math.Inf(1)
	for i := 0; i < trials; i++ {
		detect, kernel, rest := measure()
		if detect <= detectorKernelRatio*kernel {
			t.Logf("trial %d: detection %.1f ns/sample = %.2f kernel steps of %.2f ns, beside %.1f ns/sample for the rest of the ingest loop",
				i+1, detect, detect/kernel, kernel, rest)
			return
		}
		best = min(best, detect/kernel)
	}
	t.Fatalf("detection costs %.2f kernel steps per sample > %.1f across %d trials", best, detectorKernelRatio, trials)
}

// BenchmarkPredictEndpoint measures the in-process POST /v1/predict
// handler: JSON decode, BDT descent, JSON encode.
func BenchmarkPredictEndpoint(b *testing.B) {
	emmy, _ := benchData(b)
	m := mlearn.NewBDT(mlearn.DefaultTreeParams())
	if err := m.Fit(mlearn.SamplesFromDataset(emmy)); err != nil {
		b.Fatal(err)
	}
	srv := serve.New(tsdb.New(tsdb.DefaultConfig()), m, serve.DefaultConfig())
	defer srv.Close()
	handler := srv.Handler()
	body := []byte(`{"user":"u001","nodes":8,"wall_hours":12}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "predicts/s")
	}
}
