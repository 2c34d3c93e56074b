// Package core implements the paper's primary contribution: the
// characterization and quantification of HPC power-consumption behaviour
// at the system, job, and user level.
//
// Each analysis function maps to one table or figure of the evaluation:
//
//	AnalyzeSystem            → Fig. 1 (system utilization), Fig. 2 (power
//	                           utilization, stranded power)
//	AnalyzePowerDistribution → Fig. 3 (PDF of per-node job power)
//	AnalyzeAppPower          → Fig. 4 (per-application power, ranking flip)
//	AnalyzeCorrelations      → Table 2 (Spearman length/size vs power)
//	AnalyzeLengthSizeSplits  → Fig. 5 (short/long and small/large splits)
//	AnalyzeTemporal          → Figs. 6-7 (overshoot, time above mean)
//	AnalyzeSpatial           → Figs. 8-10 (spatial spread, energy spread)
//	AnalyzeUserConcentration → Fig. 11 (top-20% node-hours/energy)
//	AnalyzeUserVariability   → Fig. 12 (per-user power variability)
//	AnalyzeClusterVariability→ Fig. 13 ((user,nodes)/(user,wall) clusters)
//
// AnalyzeAll runs the full battery; Compare contrasts two systems.
package core

import (
	"fmt"

	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

// CDFPoints is the number of points retained per CDF/PDF series in
// reports; enough to draw every figure faithfully.
const CDFPoints = 200

// SystemAnalysis answers RQ1/RQ2 (Figs. 1-2): how utilized the machine is
// and how much of its provisioned power it actually draws.
type SystemAnalysis struct {
	System string
	// MeanUtilizationPct is the average ratio of active to total nodes.
	MeanUtilizationPct float64
	// MeanPowerUtilPct is the average ratio of drawn power to the
	// TDP-provisioned budget; PeakPowerUtilPct is its maximum.
	MeanPowerUtilPct float64
	PeakPowerUtilPct float64
	// StrandedPowerPct is the provisioned power fraction never used on
	// average: 100 − MeanPowerUtilPct. The paper finds >30% on both
	// systems.
	StrandedPowerPct float64
	// UtilSeries and PowerSeries are daily-averaged utilization and power
	// utilization series in percent (the green areas of Figs. 1-2).
	UtilSeries  []stats.Point
	PowerSeries []stats.Point
}

// AnalyzeSystem computes Figs. 1-2 from the cluster minute series.
func AnalyzeSystem(ds *trace.Dataset) (SystemAnalysis, error) {
	if len(ds.System) == 0 {
		return SystemAnalysis{}, fmt.Errorf("core: dataset has no system series")
	}
	budget := float64(ds.Meta.TotalNodes) * ds.Meta.NodeTDPW
	if budget <= 0 {
		return SystemAnalysis{}, fmt.Errorf("core: invalid power budget")
	}
	a := SystemAnalysis{System: ds.Meta.System}
	var utilSum, powSum, powMax float64
	for _, s := range ds.System {
		u := float64(s.ActiveNodes) / float64(ds.Meta.TotalNodes)
		p := s.TotalPowerW / budget
		utilSum += u
		powSum += p
		if p > powMax {
			powMax = p
		}
	}
	n := float64(len(ds.System))
	a.MeanUtilizationPct = 100 * utilSum / n
	a.MeanPowerUtilPct = 100 * powSum / n
	a.PeakPowerUtilPct = 100 * powMax
	a.StrandedPowerPct = 100 - a.MeanPowerUtilPct

	// Daily averages for the figure series.
	const minutesPerDay = 24 * 60
	for day := 0; day*minutesPerDay < len(ds.System); day++ {
		lo := day * minutesPerDay
		hi := lo + minutesPerDay
		if hi > len(ds.System) {
			hi = len(ds.System)
		}
		var u, p float64
		for _, s := range ds.System[lo:hi] {
			u += float64(s.ActiveNodes) / float64(ds.Meta.TotalNodes)
			p += s.TotalPowerW / budget
		}
		m := float64(hi - lo)
		a.UtilSeries = append(a.UtilSeries, stats.Point{X: float64(day), Y: 100 * u / m})
		a.PowerSeries = append(a.PowerSeries, stats.Point{X: float64(day), Y: 100 * p / m})
	}
	return a, nil
}

// PowerDistribution is Fig. 3: the distribution of per-node power across
// all jobs of a system.
type PowerDistribution struct {
	System string
	// Summary of per-node power in watts across jobs.
	Summary stats.Summary
	// MeanTDPFracPct is the mean per-node power as % of node TDP
	// (Emmy ≈71%, Meggie ≈59% in the paper).
	MeanTDPFracPct float64
	// PDF is the binned density over [0, TDP].
	PDF []stats.Point
}

// AnalyzePowerDistribution computes Fig. 3.
func AnalyzePowerDistribution(ds *trace.Dataset) (PowerDistribution, error) {
	if len(ds.Jobs) == 0 {
		return PowerDistribution{}, fmt.Errorf("core: dataset has no jobs")
	}
	if ds.Meta.NodeTDPW <= 0 {
		return PowerDistribution{}, fmt.Errorf("core: invalid node TDP")
	}
	powers := perNodePowers(ds)
	d := PowerDistribution{
		System:  ds.Meta.System,
		Summary: stats.Summarize(powers),
	}
	d.MeanTDPFracPct = 100 * d.Summary.Mean / ds.Meta.NodeTDPW
	hist := stats.NewHistogram(powers, 0, ds.Meta.NodeTDPW, 42)
	d.PDF = hist.PDFPoints()
	return d, nil
}

// perNodePowers extracts the per-node power metric of every job.
func perNodePowers(ds *trace.Dataset) []float64 {
	out := make([]float64, len(ds.Jobs))
	for i := range ds.Jobs {
		out[i] = float64(ds.Jobs[i].AvgPowerPerNode)
	}
	return out
}

// AppPower is one bar of Fig. 4.
type AppPower struct {
	App        string
	Jobs       int
	MeanPowerW float64
	StdW       float64
}

// AnalyzeAppPower computes mean per-node power for the given applications
// (Fig. 4 uses the five key apps common to both systems). Applications
// with no jobs are skipped.
func AnalyzeAppPower(ds *trace.Dataset, appNames []string) []AppPower {
	var out []AppPower
	for _, name := range appNames {
		var acc stats.Moments
		for i := range ds.Jobs {
			if ds.Jobs[i].App == name {
				acc.Add(float64(ds.Jobs[i].AvgPowerPerNode))
			}
		}
		if acc.N == 0 {
			continue
		}
		out = append(out, AppPower{
			App: name, Jobs: int(acc.N),
			MeanPowerW: acc.Mean(), StdW: acc.Std(),
		})
	}
	return out
}

// RankingFlips returns the application pairs whose per-node power ranking
// differs between the two systems — the paper's Fig. 4 highlight
// (MD-0 vs FASTEST).
func RankingFlips(a, b []AppPower) [][2]string {
	pa := map[string]float64{}
	pb := map[string]float64{}
	for _, x := range a {
		pa[x.App] = x.MeanPowerW
	}
	for _, x := range b {
		pb[x.App] = x.MeanPowerW
	}
	var flips [][2]string
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			n1, n2 := a[i].App, a[j].App
			v1b, ok1 := pb[n1]
			v2b, ok2 := pb[n2]
			if !ok1 || !ok2 {
				continue
			}
			if (pa[n1] > pa[n2]) != (v1b > v2b) {
				flips = append(flips, [2]string{n1, n2})
			}
		}
	}
	return flips
}

// CorrelationTable is Table 2: Spearman correlations of job length and
// size against per-node power, with p-values.
type CorrelationTable struct {
	System string
	Length stats.CorrResult // runtime vs per-node power
	Size   stats.CorrResult // node count vs per-node power
}

// AnalyzeCorrelations computes Table 2 for one system.
func AnalyzeCorrelations(ds *trace.Dataset) (CorrelationTable, error) {
	if len(ds.Jobs) < 3 {
		return CorrelationTable{}, fmt.Errorf("core: too few jobs for correlation")
	}
	lens := make([]float64, len(ds.Jobs))
	sizes := make([]float64, len(ds.Jobs))
	pows := perNodePowers(ds)
	for i := range ds.Jobs {
		lens[i] = ds.Jobs[i].Runtime().Hours()
		sizes[i] = float64(ds.Jobs[i].Nodes)
	}
	return CorrelationTable{
		System: ds.Meta.System,
		Length: stats.SpearmanTest(lens, pows),
		Size:   stats.SpearmanTest(sizes, pows),
	}, nil
}

// SplitGroup is one bar of Fig. 5: mean ± std per-node power of a job
// subset, also expressed as a fraction of node TDP.
type SplitGroup struct {
	Label      string
	Jobs       int
	MeanPowerW float64
	StdW       float64
	MeanTDPPct float64
}

// LengthSizeSplits is Fig. 5: jobs split at the median runtime into
// short/long and at the median size into small/large.
type LengthSizeSplits struct {
	System         string
	MedianRuntimeH float64
	MedianNodes    float64
	Short, Long    SplitGroup
	Small, Large   SplitGroup
}

// AnalyzeLengthSizeSplits computes Fig. 5.
func AnalyzeLengthSizeSplits(ds *trace.Dataset) (LengthSizeSplits, error) {
	if len(ds.Jobs) < 4 {
		return LengthSizeSplits{}, fmt.Errorf("core: too few jobs for splits")
	}
	lens := make([]float64, len(ds.Jobs))
	sizes := make([]float64, len(ds.Jobs))
	for i := range ds.Jobs {
		lens[i] = ds.Jobs[i].Runtime().Hours()
		sizes[i] = float64(ds.Jobs[i].Nodes)
	}
	out := LengthSizeSplits{
		System:         ds.Meta.System,
		MedianRuntimeH: stats.Median(lens),
		MedianNodes:    stats.Median(sizes),
	}
	group := func(label string, pred func(j *trace.Job) bool) SplitGroup {
		var acc stats.Moments
		for i := range ds.Jobs {
			if pred(&ds.Jobs[i]) {
				acc.Add(float64(ds.Jobs[i].AvgPowerPerNode))
			}
		}
		return SplitGroup{
			Label: label, Jobs: int(acc.N),
			MeanPowerW: acc.Mean(), StdW: acc.Std(),
			MeanTDPPct: 100 * acc.Mean() / ds.Meta.NodeTDPW,
		}
	}
	out.Short = group("short", func(j *trace.Job) bool { return j.Runtime().Hours() <= out.MedianRuntimeH })
	out.Long = group("long", func(j *trace.Job) bool { return j.Runtime().Hours() > out.MedianRuntimeH })
	out.Small = group("small", func(j *trace.Job) bool { return float64(j.Nodes) <= out.MedianNodes })
	out.Large = group("large", func(j *trace.Job) bool { return float64(j.Nodes) > out.MedianNodes })
	return out, nil
}
