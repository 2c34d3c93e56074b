package core

import (
	"fmt"
	"sort"

	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

// UserConcentration is Fig. 11: a small fraction of users consume most of
// the node-hours and energy, and the two top-sets largely overlap.
type UserConcentration struct {
	System string
	Users  int
	// Top20NodeHoursPct / Top20EnergyPct: share held by the top 20% of
	// users (paper: ≈85% on both systems).
	Top20NodeHoursPct float64
	Top20EnergyPct    float64
	// OverlapPct: |top-20% by node-hours ∩ top-20% by energy| / k
	// (paper: ≈90%).
	OverlapPct float64
	// Concentration curves (x = top fraction of users, y = share).
	NodeHoursCurve []stats.Point
	EnergyCurve    []stats.Point
	GiniNodeHours  float64
	GiniEnergy     float64
}

// AnalyzeUserConcentration computes Fig. 11.
func AnalyzeUserConcentration(ds *trace.Dataset) (UserConcentration, error) {
	nodeHours := map[string]float64{}
	energy := map[string]float64{}
	for i := range ds.Jobs {
		j := &ds.Jobs[i]
		nodeHours[j.User] += float64(j.NodeHours())
		energy[j.User] += float64(j.Energy)
	}
	if len(nodeHours) < 5 {
		return UserConcentration{}, fmt.Errorf("core: too few users (%d)", len(nodeHours))
	}
	nh := values(nodeHours)
	en := values(energy)
	cNH := stats.NewConcentration(nh)
	cEN := stats.NewConcentration(en)
	k := len(nodeHours) / 5
	if k < 1 {
		k = 1
	}
	return UserConcentration{
		System:            ds.Meta.System,
		Users:             len(nodeHours),
		Top20NodeHoursPct: 100 * cNH.TopShare(0.2),
		Top20EnergyPct:    100 * cEN.TopShare(0.2),
		OverlapPct:        100 * stats.TopOverlap(nodeHours, energy, k),
		NodeHoursCurve:    cNH.Curve(50),
		EnergyCurve:       cEN.Curve(50),
		GiniNodeHours:     cNH.Gini(),
		GiniEnergy:        cEN.Gini(),
	}, nil
}

func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// UserVariability is Fig. 12: the within-user variability of per-node
// power (and, per the text, of node counts and runtimes). High values mean
// a user's jobs do NOT share one power profile.
type UserVariability struct {
	System string
	// Users with at least MinJobsPerGroup jobs.
	Users int
	// Mean of the per-user std of per-node power as % of the user's mean
	// (paper: ~50% Emmy, ~100% Meggie — an upper bound our smoother
	// synthetic population approaches from below).
	MeanPowerStdPct float64
	PowerStdCDF     []stats.Point
	// Within-user variability of job sizes and runtimes (the text cites
	// Emmy 40%/95%, Meggie 55%/170%).
	MeanNodesStdPct   float64
	MeanRuntimeStdPct float64
}

// MinJobsPerGroup is the minimum group size for variability statistics;
// std of a single job is meaningless.
const MinJobsPerGroup = 3

// AnalyzeUserVariability computes Fig. 12.
func AnalyzeUserVariability(ds *trace.Dataset) (UserVariability, error) {
	type agg struct{ pow, nodes, hours []float64 }
	// Users in the order of their first job, so the means below add up in
	// the same order on every run.
	byUser := map[string]*agg{}
	var users []*agg
	for i := range ds.Jobs {
		j := &ds.Jobs[i]
		a := byUser[j.User]
		if a == nil {
			a = &agg{}
			byUser[j.User] = a
			users = append(users, a)
		}
		a.pow = append(a.pow, float64(j.AvgPowerPerNode))
		a.nodes = append(a.nodes, float64(j.Nodes))
		a.hours = append(a.hours, j.Runtime().Hours())
	}
	var powStd, nodeStd, hourStd []float64
	for _, a := range users {
		if len(a.pow) < MinJobsPerGroup {
			continue
		}
		powStd = append(powStd, 100*safeCV(a.pow))
		nodeStd = append(nodeStd, 100*safeCV(a.nodes))
		hourStd = append(hourStd, 100*safeCV(a.hours))
	}
	if len(powStd) == 0 {
		return UserVariability{}, fmt.Errorf("core: no user has %d+ jobs", MinJobsPerGroup)
	}
	cdf := stats.NewECDF(powStd)
	return UserVariability{
		System:            ds.Meta.System,
		Users:             len(powStd),
		MeanPowerStdPct:   cdf.Mean(),
		PowerStdCDF:       cdf.Points(CDFPoints),
		MeanNodesStdPct:   stats.Mean(nodeStd),
		MeanRuntimeStdPct: stats.Mean(hourStd),
	}, nil
}

func safeCV(xs []float64) float64 {
	cv := stats.CV(xs)
	if cv != cv { // NaN
		return 0
	}
	return cv
}

// ClusterBucket is one slice of the Fig. 13 pie: the fraction of clusters
// whose within-cluster power std falls in [Lo, Hi) percent of the mean.
type ClusterBucket struct {
	Lo, Hi      float64
	ClustersPct float64
}

// ClusterBreakdown summarizes one clustering criterion of Fig. 13.
type ClusterBreakdown struct {
	Criterion string // "nodes" or "walltime"
	Clusters  int
	// FracBelow10Pct is the headline number: the share of clusters with
	// within-cluster power std <10% (Emmy by-nodes: 61.7% in the paper).
	FracBelow10Pct float64
	MeanStdPct     float64
	Buckets        []ClusterBucket
}

// ClusterVariability is Fig. 13: when a user's jobs are clustered by node
// count (or by requested walltime), the within-cluster power variability
// collapses — the repetitive-job structure that makes prediction work.
type ClusterVariability struct {
	System     string
	ByNodes    ClusterBreakdown
	ByWalltime ClusterBreakdown
}

// fig13Buckets are the std ranges of the Fig. 13 pie slices.
var fig13Buckets = [][2]float64{{0, 5}, {5, 10}, {10, 20}, {20, 40}, {40, 1e18}}

// AnalyzeClusterVariability computes Fig. 13.
func AnalyzeClusterVariability(ds *trace.Dataset) (ClusterVariability, error) {
	byNodes, err := clusterStds(ds, func(j *trace.Job) string {
		return fmt.Sprintf("%s/%d", j.User, j.Nodes)
	})
	if err != nil {
		return ClusterVariability{}, err
	}
	byWall, err := clusterStds(ds, func(j *trace.Job) string {
		return fmt.Sprintf("%s/%d", j.User, int(j.ReqWall.Hours()))
	})
	if err != nil {
		return ClusterVariability{}, err
	}
	return ClusterVariability{
		System:     ds.Meta.System,
		ByNodes:    breakdown("nodes", byNodes),
		ByWalltime: breakdown("walltime", byWall),
	}, nil
}

// clusterStds groups jobs by key and returns each qualifying cluster's
// power std as % of its mean.
func clusterStds(ds *trace.Dataset, key func(*trace.Job) string) ([]float64, error) {
	groups := map[string][]float64{}
	for i := range ds.Jobs {
		j := &ds.Jobs[i]
		k := key(j)
		groups[k] = append(groups[k], float64(j.AvgPowerPerNode))
	}
	var stds []float64
	for _, pows := range groups {
		if len(pows) < MinJobsPerGroup {
			continue
		}
		stds = append(stds, 100*safeCV(pows))
	}
	if len(stds) == 0 {
		return nil, fmt.Errorf("core: no cluster has %d+ jobs", MinJobsPerGroup)
	}
	sort.Float64s(stds)
	return stds, nil
}

func breakdown(criterion string, stds []float64) ClusterBreakdown {
	b := ClusterBreakdown{Criterion: criterion, Clusters: len(stds)}
	b.MeanStdPct = stats.Mean(stds)
	n := float64(len(stds))
	below10 := 0
	for _, s := range stds {
		if s < 10 {
			below10++
		}
	}
	b.FracBelow10Pct = 100 * float64(below10) / n
	for _, r := range fig13Buckets {
		count := 0
		for _, s := range stds {
			if s >= r[0] && s < r[1] {
				count++
			}
		}
		b.Buckets = append(b.Buckets, ClusterBucket{
			Lo: r[0], Hi: r[1],
			ClustersPct: 100 * float64(count) / n,
		})
	}
	return b
}
