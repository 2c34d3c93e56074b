package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"hpcpower/internal/gen"
	"hpcpower/internal/trace"
	"hpcpower/internal/units"
)

var (
	emmyDS   *trace.Dataset
	meggieDS *trace.Dataset
)

func emmy(t testing.TB) *trace.Dataset {
	t.Helper()
	if emmyDS == nil {
		ds, err := gen.Generate(gen.EmmyConfig(0.05, 42))
		if err != nil {
			t.Fatal(err)
		}
		emmyDS = ds
	}
	return emmyDS
}

func meggie(t testing.TB) *trace.Dataset {
	t.Helper()
	if meggieDS == nil {
		ds, err := gen.Generate(gen.MeggieConfig(0.05, 42))
		if err != nil {
			t.Fatal(err)
		}
		meggieDS = ds
	}
	return meggieDS
}

// tiny builds a handcrafted dataset with known properties for exact tests.
func tiny() *trace.Dataset {
	t0 := time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)
	mk := func(id uint64, user string, app string, nodes int, hours float64, powerW float64) trace.Job {
		end := t0.Add(time.Duration(hours * float64(time.Hour)))
		return trace.Job{
			ID: id, User: user, App: app, Nodes: nodes,
			Submit: t0, Start: t0, End: end,
			ReqWall:         time.Duration(hours*1.5) * time.Hour,
			AvgPowerPerNode: units.Watts(powerW),
			Energy:          units.Joules(powerW * float64(nodes) * hours * 3600),
			Instrumented:    true,
		}
	}
	ds := &trace.Dataset{
		Meta: trace.Meta{
			System: "Tiny", TotalNodes: 10, NodeTDPW: 200,
			Start: t0, End: t0.Add(4 * time.Hour),
		},
	}
	ds.Jobs = []trace.Job{
		mk(1, "u1", "A", 2, 1, 100),
		mk(2, "u1", "A", 2, 1, 110),
		mk(3, "u1", "A", 2, 1, 105),
		mk(4, "u2", "B", 4, 2, 150),
		mk(5, "u2", "B", 4, 2, 160),
		mk(6, "u2", "B", 4, 2, 155),
		mk(7, "u3", "A", 8, 4, 180),
		mk(8, "u4", "B", 1, 0.5, 90),
		mk(9, "u5", "A", 1, 0.5, 95),
		mk(10, "u6", "B", 2, 1, 120),
	}
	// Minimal system series: 2 samples.
	ds.System = []trace.SystemSample{
		{Time: t0, ActiveNodes: 8, TotalPowerW: 1200},
		{Time: t0.Add(time.Minute), ActiveNodes: 10, TotalPowerW: 1600},
	}
	return ds
}

func TestAnalyzeSystemExact(t *testing.T) {
	a, err := AnalyzeSystem(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Utilization: (0.8 + 1.0)/2 = 90%.
	if math.Abs(a.MeanUtilizationPct-90) > 1e-9 {
		t.Errorf("MeanUtilizationPct = %v", a.MeanUtilizationPct)
	}
	// Power: budget = 2000 W; (0.6 + 0.8)/2 = 70%; peak 80%.
	if math.Abs(a.MeanPowerUtilPct-70) > 1e-9 {
		t.Errorf("MeanPowerUtilPct = %v", a.MeanPowerUtilPct)
	}
	if math.Abs(a.PeakPowerUtilPct-80) > 1e-9 {
		t.Errorf("PeakPowerUtilPct = %v", a.PeakPowerUtilPct)
	}
	if math.Abs(a.StrandedPowerPct-30) > 1e-9 {
		t.Errorf("StrandedPowerPct = %v", a.StrandedPowerPct)
	}
	if len(a.UtilSeries) != 1 || len(a.PowerSeries) != 1 {
		t.Errorf("series lengths: %d %d", len(a.UtilSeries), len(a.PowerSeries))
	}
}

func TestAnalyzeSystemErrors(t *testing.T) {
	if _, err := AnalyzeSystem(&trace.Dataset{Meta: trace.Meta{TotalNodes: 1, NodeTDPW: 100}}); err == nil {
		t.Error("empty system series accepted")
	}
}

func TestAnalyzePowerDistributionExact(t *testing.T) {
	d, err := AnalyzePowerDistribution(tiny())
	if err != nil {
		t.Fatal(err)
	}
	want := (100.0 + 110 + 105 + 150 + 160 + 155 + 180 + 90 + 95 + 120) / 10
	if math.Abs(d.Summary.Mean-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", d.Summary.Mean, want)
	}
	if math.Abs(d.MeanTDPFracPct-100*want/200) > 1e-9 {
		t.Errorf("TDP frac = %v", d.MeanTDPFracPct)
	}
	// PDF integrates to ~1.
	var integral float64
	for i := 1; i < len(d.PDF); i++ {
		integral += d.PDF[i].Y * (d.PDF[i].X - d.PDF[i-1].X)
	}
	if math.Abs(integral-1) > 0.05 {
		t.Errorf("PDF integral = %v", integral)
	}
	if _, err := AnalyzePowerDistribution(&trace.Dataset{Meta: trace.Meta{TotalNodes: 1, NodeTDPW: 1}}); err == nil {
		t.Error("empty job table accepted")
	}
}

func TestAnalyzeAppPowerExact(t *testing.T) {
	got := AnalyzeAppPower(tiny(), []string{"A", "B", "C"})
	if len(got) != 2 {
		t.Fatalf("apps = %+v", got)
	}
	// App A: 100,110,105,180,95 → mean 118.
	if got[0].App != "A" || math.Abs(got[0].MeanPowerW-118) > 1e-9 || got[0].Jobs != 5 {
		t.Errorf("A = %+v", got[0])
	}
	// App B: 150,160,155,90,120 → mean 135.
	if got[1].App != "B" || math.Abs(got[1].MeanPowerW-135) > 1e-9 {
		t.Errorf("B = %+v", got[1])
	}
}

func TestRankingFlips(t *testing.T) {
	a := []AppPower{{App: "X", MeanPowerW: 100}, {App: "Y", MeanPowerW: 90}}
	b := []AppPower{{App: "X", MeanPowerW: 60}, {App: "Y", MeanPowerW: 70}}
	flips := RankingFlips(a, b)
	if len(flips) != 1 || flips[0] != [2]string{"X", "Y"} {
		t.Errorf("flips = %v", flips)
	}
	// Same ordering: no flips.
	c := []AppPower{{App: "X", MeanPowerW: 80}, {App: "Y", MeanPowerW: 75}}
	if flips := RankingFlips(a, c); len(flips) != 0 {
		t.Errorf("unexpected flips: %v", flips)
	}
	// Missing app in b: skipped.
	d := []AppPower{{App: "X", MeanPowerW: 1}}
	if flips := RankingFlips(a, d); len(flips) != 0 {
		t.Errorf("missing apps should not flip: %v", flips)
	}
}

func TestAnalyzeCorrelationsTiny(t *testing.T) {
	ct, err := AnalyzeCorrelations(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// The tiny dataset is built so longer/larger jobs draw more power.
	if ct.Length.R <= 0.5 {
		t.Errorf("length corr = %v", ct.Length.R)
	}
	if ct.Size.R <= 0.5 {
		t.Errorf("size corr = %v", ct.Size.R)
	}
	if _, err := AnalyzeCorrelations(&trace.Dataset{}); err == nil {
		t.Error("tiny job table accepted")
	}
}

func TestAnalyzeLengthSizeSplitsExact(t *testing.T) {
	s, err := AnalyzeLengthSizeSplits(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if s.Short.Jobs+s.Long.Jobs != 10 {
		t.Errorf("split does not partition: %d + %d", s.Short.Jobs, s.Long.Jobs)
	}
	if s.Small.Jobs+s.Large.Jobs != 10 {
		t.Errorf("size split does not partition")
	}
	if !(s.Long.MeanPowerW > s.Short.MeanPowerW) {
		t.Errorf("long (%v) should out-draw short (%v)", s.Long.MeanPowerW, s.Short.MeanPowerW)
	}
	if !(s.Large.MeanPowerW > s.Small.MeanPowerW) {
		t.Errorf("large (%v) should out-draw small (%v)", s.Large.MeanPowerW, s.Small.MeanPowerW)
	}
	if s.Short.MeanTDPPct <= 0 || s.Short.MeanTDPPct > 100 {
		t.Errorf("TDP pct out of range: %v", s.Short.MeanTDPPct)
	}
}

func TestAnalyzeTemporalOnGenerated(t *testing.T) {
	a, err := AnalyzeTemporal(emmy(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Jobs < 500 {
		t.Fatalf("instrumented jobs = %d", a.Jobs)
	}
	// Paper: mean overshoot ~10-12%; most jobs spend ~0% above 1.1×mean.
	if a.MeanOvershootPct < 5 || a.MeanOvershootPct > 25 {
		t.Errorf("mean overshoot = %v%%", a.MeanOvershootPct)
	}
	if a.FracJobsNearZeroPct < 50 {
		t.Errorf("jobs with ≈0%% time above = %v%%, want most", a.FracJobsNearZeroPct)
	}
	if a.MeanPctTimeAbove < 0 || a.MeanPctTimeAbove > 30 {
		t.Errorf("mean %% time above = %v", a.MeanPctTimeAbove)
	}
	// CDF sanity: monotone, ends at 1.
	last := a.OvershootCDF[len(a.OvershootCDF)-1]
	if last.Y != 1 {
		t.Errorf("overshoot CDF ends at %v", last.Y)
	}
	for i := 1; i < len(a.OvershootCDF); i++ {
		if a.OvershootCDF[i].Y < a.OvershootCDF[i-1].Y {
			t.Fatalf("overshoot CDF not monotone at %d", i)
		}
	}
}

func TestAnalyzeSpatialOnGenerated(t *testing.T) {
	a, err := AnalyzeSpatial(emmy(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Jobs < 200 {
		t.Fatalf("multi-node jobs = %d", a.Jobs)
	}
	// Paper: mean spread ≈20 W, ≈15% of per-node power.
	if a.MeanSpreadW < 8 || a.MeanSpreadW > 35 {
		t.Errorf("mean spread = %v W", a.MeanSpreadW)
	}
	if a.MeanSpreadPct < 5 || a.MeanSpreadPct > 30 {
		t.Errorf("mean spread pct = %v%%", a.MeanSpreadPct)
	}
	// Paper: spread above its own average ~30-50% of the time.
	if a.MeanPctTimeAboveAvg < 15 || a.MeanPctTimeAboveAvg > 60 {
		t.Errorf("pct time above avg spread = %v", a.MeanPctTimeAboveAvg)
	}
	// Paper Fig. 10: a noticeable fraction of jobs above 15% energy spread.
	if a.FracJobsEnergyAbove15 < 2 || a.FracJobsEnergyAbove15 > 60 {
		t.Errorf("energy spread >15%% fraction = %v%%", a.FracJobsEnergyAbove15)
	}
	// Paper: energy spread correlates with node count.
	if a.EnergySpreadSizeCorr.R <= 0 {
		t.Errorf("energy spread vs size corr = %v, want positive", a.EnergySpreadSizeCorr.R)
	}
}

func TestVerifySpatialFromSeries(t *testing.T) {
	ds := emmy(t)
	checked := 0
	for id, series := range ds.Series {
		j := ds.Job(id)
		if j == nil {
			t.Fatalf("series for missing job %d", id)
		}
		spread, power, eSpread, err := VerifySpatialFromSeries(series)
		if err != nil {
			t.Fatal(err)
		}
		// The job table must agree with the released raw samples.
		if relDiff(spread, j.AvgSpatialSpreadW) > 1e-6 {
			t.Errorf("job %d: spread %v vs table %v", id, spread, j.AvgSpatialSpreadW)
		}
		if relDiff(power, float64(j.AvgPowerPerNode)) > 1e-6 {
			t.Errorf("job %d: power %v vs table %v", id, power, float64(j.AvgPowerPerNode))
		}
		if relDiff(eSpread, j.NodeEnergySpreadPct) > 1e-6 {
			t.Errorf("job %d: energy spread %v vs table %v", id, eSpread, j.NodeEnergySpreadPct)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no retained series to verify")
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestVerifySpatialErrors(t *testing.T) {
	if _, _, _, err := VerifySpatialFromSeries(nil); err == nil {
		t.Error("empty series accepted")
	}
	ragged := []trace.NodeSeries{
		{Power: []float64{1, 2}},
		{Power: []float64{1}},
	}
	if _, _, _, err := VerifySpatialFromSeries(ragged); err == nil {
		t.Error("ragged series accepted")
	}
}

func TestAnalyzeUserConcentrationOnGenerated(t *testing.T) {
	a, err := AnalyzeUserConcentration(emmy(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Top20NodeHoursPct < 60 {
		t.Errorf("top-20%% node-hours = %v%%, want ~85%%", a.Top20NodeHoursPct)
	}
	if a.Top20EnergyPct < 60 {
		t.Errorf("top-20%% energy = %v%%, want ~85%%", a.Top20EnergyPct)
	}
	if a.OverlapPct < 70 {
		t.Errorf("overlap = %v%%, want ~90%%", a.OverlapPct)
	}
	if a.GiniNodeHours <= 0.3 {
		t.Errorf("Gini = %v, want strongly concentrated", a.GiniNodeHours)
	}
	// Curves are monotone and end at 100%.
	end := a.NodeHoursCurve[len(a.NodeHoursCurve)-1]
	if math.Abs(end.Y-1) > 1e-9 {
		t.Errorf("curve end = %v", end.Y)
	}
}

func TestAnalyzeUserVariabilityOnGenerated(t *testing.T) {
	a, err := AnalyzeUserVariability(emmy(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Users < 20 {
		t.Fatalf("users with enough jobs = %d", a.Users)
	}
	// The paper's claim is variability is HIGH: well above the ~10%
	// within-cluster level.
	if a.MeanPowerStdPct < 12 {
		t.Errorf("mean per-user power std = %v%%, want high (>12%%)", a.MeanPowerStdPct)
	}
	if a.MeanNodesStdPct <= 0 || a.MeanRuntimeStdPct <= 0 {
		t.Errorf("nodes/runtime variability = %v / %v", a.MeanNodesStdPct, a.MeanRuntimeStdPct)
	}
}

func TestMeggieMoreVariableThanEmmy(t *testing.T) {
	ae, err := AnalyzeUserVariability(emmy(t))
	if err != nil {
		t.Fatal(err)
	}
	am, err := AnalyzeUserVariability(meggie(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 12: Meggie's users are markedly more variable (≈100% vs
	// ≈50% mean power std; 55% vs 40% nodes; 170% vs 95% runtime).
	if !(am.MeanPowerStdPct > ae.MeanPowerStdPct) {
		t.Errorf("Meggie power variability %v <= Emmy %v", am.MeanPowerStdPct, ae.MeanPowerStdPct)
	}
	if !(am.MeanNodesStdPct > ae.MeanNodesStdPct) {
		t.Errorf("Meggie nodes variability %v <= Emmy %v", am.MeanNodesStdPct, ae.MeanNodesStdPct)
	}
}

func TestAnalyzeClusterVariabilityOnGenerated(t *testing.T) {
	for _, ds := range []*trace.Dataset{emmy(t), meggie(t)} {
		cv, err := AnalyzeClusterVariability(ds)
		if err != nil {
			t.Fatal(err)
		}
		uv, err := AnalyzeUserVariability(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []ClusterBreakdown{cv.ByNodes, cv.ByWalltime} {
			if b.Clusters < 10 {
				t.Fatalf("%s/%s: %d clusters", ds.Meta.System, b.Criterion, b.Clusters)
			}
			// The paper's Fig. 13 headline: most clusters sit below 10% std
			// — far below the per-user variability of Fig. 12.
			if b.FracBelow10Pct < 40 {
				t.Errorf("%s/%s: clusters <10%% std = %v%%, want majority",
					ds.Meta.System, b.Criterion, b.FracBelow10Pct)
			}
			if !(b.MeanStdPct < uv.MeanPowerStdPct) {
				t.Errorf("%s/%s: clustering did not reduce variability (%v vs %v)",
					ds.Meta.System, b.Criterion, b.MeanStdPct, uv.MeanPowerStdPct)
			}
			var total float64
			for _, bucket := range b.Buckets {
				total += bucket.ClustersPct
			}
			if math.Abs(total-100) > 1e-6 {
				t.Errorf("%s/%s: buckets sum to %v", ds.Meta.System, b.Criterion, total)
			}
		}
	}
}

func TestAnalyzeAllAndCompare(t *testing.T) {
	re, err := AnalyzeAll(emmy(t))
	if err != nil {
		t.Fatal(err)
	}
	rm, err := AnalyzeAll(meggie(t))
	if err != nil {
		t.Fatal(err)
	}
	if re.System != "Emmy" || rm.System != "Meggie" {
		t.Errorf("systems: %s %s", re.System, rm.System)
	}
	if len(re.AppPower) != 5 {
		t.Errorf("key apps analyzed = %d", len(re.AppPower))
	}
	cmp := Compare(re, rm)
	// The built-in MD-0/FASTEST flip must be detected.
	found := false
	for _, f := range cmp.Flips {
		if (f[0] == "MD-0" && f[1] == "FASTEST") || (f[0] == "FASTEST" && f[1] == "MD-0") {
			found = true
		}
	}
	if !found {
		t.Errorf("MD-0/FASTEST flip not detected: %v", cmp.Flips)
	}
	// Every key app draws less on Meggie (positive delta).
	for app, delta := range cmp.PerAppDeltaPct {
		if delta <= 0 || delta > 45 {
			t.Errorf("%s delta = %v%%", app, delta)
		}
	}
	// Stranded power: the paper's >30% finding holds on both systems.
	if re.SystemLevel.StrandedPowerPct < 20 {
		t.Errorf("Emmy stranded power = %v%%", re.SystemLevel.StrandedPowerPct)
	}
	if rm.SystemLevel.StrandedPowerPct < 30 {
		t.Errorf("Meggie stranded power = %v%%", rm.SystemLevel.StrandedPowerPct)
	}
}

func TestAnalyzeAllErrorPropagation(t *testing.T) {
	if _, err := AnalyzeAll(&trace.Dataset{Meta: trace.Meta{TotalNodes: 1, NodeTDPW: 100}}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestCheckClaimsOnGenerated(t *testing.T) {
	re, err := AnalyzeAll(emmy(t))
	if err != nil {
		t.Fatal(err)
	}
	rm, err := AnalyzeAll(meggie(t))
	if err != nil {
		t.Fatal(err)
	}
	pred := map[string][]PredSummary{
		"Emmy": {{Model: "BDT", FracBelow10: 89}, {Model: "FLDA", FracBelow10: 55}},
	}
	claims := CheckClaims(re, rm, pred)
	if len(claims) < 11 {
		t.Fatalf("claims = %d", len(claims))
	}
	for _, c := range claims {
		if c.ID == "" || c.Statement == "" || c.Measured == "" {
			t.Errorf("incomplete claim: %+v", c)
		}
		if !c.Holds {
			t.Errorf("claim %q does not hold: %s", c.ID, c.Measured)
		}
	}
	if !ClaimsHold(claims) {
		t.Error("ClaimsHold disagrees with individual claims")
	}
	// A report that breaks a claim is detected.
	broken := *re
	brokenSys := re.SystemLevel
	brokenSys.StrandedPowerPct = 1
	broken.SystemLevel = brokenSys
	claims = CheckClaims(&broken, rm, pred)
	if ClaimsHold(claims) {
		t.Error("broken stranded-power claim not detected")
	}
}

// TestCheckClaimsSameOnEveryCall: with two systems' prediction results,
// the claims come out in one order (the systems' names sorted) on every
// call, so powreport prints its prediction lines in one order.
func TestCheckClaimsSameOnEveryCall(t *testing.T) {
	re, err := AnalyzeAll(emmy(t))
	if err != nil {
		t.Fatal(err)
	}
	rm, err := AnalyzeAll(meggie(t))
	if err != nil {
		t.Fatal(err)
	}
	pred := map[string][]PredSummary{
		"Meggie": {{Model: "BDT", FracBelow10: 91}, {Model: "FLDA", FracBelow10: 70}},
		"Emmy":   {{Model: "BDT", FracBelow10: 89}, {Model: "FLDA", FracBelow10: 55}},
	}
	first := CheckClaims(re, rm, pred)
	for i := 2; i <= 20; i++ {
		if again := CheckClaims(re, rm, pred); !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d: claims differ from the first call's:\n%+v\n%+v", i, again, first)
		}
	}
	if n := len(first); first[n-2].ID != "prediction-Emmy" || first[n-1].ID != "prediction-Meggie" {
		t.Errorf("prediction claims: %s, %s", first[n-2].ID, first[n-1].ID)
	}
}
