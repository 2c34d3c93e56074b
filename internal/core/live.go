package core

import (
	"fmt"

	"hpcpower/internal/stats"
)

// Live analytics: the paper's distribution/overshoot characterization
// (Figs. 3, 7a, 9b) computed from a *running* store — either over HTTP
// from powserved's query API (powanalyze -source) or from an in-process
// replay (powanalyze -live-control). Both producers feed the same
// AnalyzeLive, and every reduction here is order-independent (ECDF sorts
// its sample), so the two paths render byte-identical reports from the
// same underlying samples.

// LiveJob is the per-job live characterization consumed by AnalyzeLive —
// the JSON shape of powserved's GET /v1/jobs/{id}/power.
type LiveJob struct {
	JobID   uint64 `json:"job"`
	Samples int64  `json:"samples"`
	Nodes   int    `json:"nodes"`

	MeanW float64 `json:"mean_w"`
	StdW  float64 `json:"std_w"`
	MinW  float64 `json:"min_w"`
	MaxW  float64 `json:"max_w"`

	PeakOvershootPct  float64 `json:"peak_overshoot_pct"`
	AvgSpatialSpreadW float64 `json:"avg_spatial_spread_w"`
	SpatialSpreadPct  float64 `json:"spatial_spread_pct"`
}

// LiveDist is one live distribution: the ECDF reduction of a value set
// (DistFromValues), or of its counts (DistFromCounts).
type LiveDist struct {
	N    int64         `json:"n"`
	Mean float64       `json:"mean"`
	Min  float64       `json:"min"`
	Max  float64       `json:"max"`
	P50  float64       `json:"p50"`
	P80  float64       `json:"p80"`
	P95  float64       `json:"p95"`
	CDF  []stats.Point `json:"cdf"`
}

// DistFromValues reduces a value set to its LiveDist. It takes ownership
// of values and sorts them in place (a fleet-wide pull is too large to
// copy per query); the result does not depend on the order they arrive
// in — the property that makes HTTP-pulled and in-process-replayed
// analytics byte-identical. The LiveDist keeps no reference to values.
func DistFromValues(values []float64) LiveDist {
	if len(values) == 0 {
		return LiveDist{}
	}
	e := stats.NewECDFInPlace(values)
	return LiveDist{
		N:    int64(e.N()),
		Mean: e.Mean(),
		Min:  e.Quantile(0),
		Max:  e.Quantile(1),
		P50:  e.Quantile(0.50),
		P80:  e.Quantile(0.80),
		P95:  e.Quantile(0.95),
		CDF:  e.Points(CDFPoints),
	}
}

// DistFromCounts is DistFromValues over the values counts stands for —
// each V repeated N times, ascending by V as stats.Tally.Sorted returns
// them — and gives the same LiveDist, bit for bit: the mean is the same
// ascending run of additions (a value added N times, never multiplied by
// N), and the type-7 quantiles and CDF points read the same ranks
// (stats.RankReader).
func DistFromCounts(counts []stats.ValueCount) LiveDist {
	n := 0
	var sum float64
	for _, c := range counts {
		n += int(c.N)
		for range c.N {
			sum += c.V
		}
	}
	if n == 0 {
		return LiveDist{}
	}
	r := stats.NewRankReader(stats.ValueCounts(counts))
	d := LiveDist{N: int64(n), Mean: sum / float64(n)}
	d.Min = r.Quantile(0, n)
	d.P50 = r.Quantile(0.50, n)
	d.P80 = r.Quantile(0.80, n)
	d.P95 = r.Quantile(0.95, n)
	d.Max = r.Quantile(1, n)
	// stats.ECDF.Points(CDFPoints).
	m := min(CDFPoints, n)
	d.CDF = make([]stats.Point, 0, m)
	for i := 0; i < m; i++ {
		idx := i * (n - 1) / max(m-1, 1)
		d.CDF = append(d.CDF, stats.Point{X: r.At(idx), Y: float64(idx+1) / float64(n)})
	}
	return d
}

// LiveInput is everything the live analytics need, assembled by the CLI
// adapters (HTTP pull or in-process replay).
type LiveInput struct {
	System   string
	NodeTDPW float64 // 0: TDP fractions are omitted
	Jobs     []LiveJob
	// SamplePower is the distribution of every retained raw per-node
	// sample (head + blocks), as computed by the store's distribution
	// query. The reduction is exact: it counts the window's values (or,
	// when they repeat too little, holds them — 8 bytes each, in one
	// pooled buffer, sorted in place) but never the series: no
	// timestamps, no decoded points, no per-node copies.
	SamplePower LiveDist
	Frontier    int64
}

// LiveReport is the live counterpart of the paper's distribution and
// overshoot figures.
type LiveReport struct {
	System string
	Jobs   int
	// JobPower is Fig. 3 live: distribution of per-job mean per-node
	// power across all observed jobs.
	JobPower       LiveDist
	MeanTDPFracPct float64 // 0 when NodeTDPW unknown
	// SamplePower is the sample-level power distribution over the whole
	// retained window (blocks + head), straight from LiveInput.
	SamplePower LiveDist
	// Overshoot is Fig. 7a live: peak overshoot ECDF over jobs.
	Overshoot LiveDist
	// SpreadPct is Fig. 9b live: spatial spread (% of job mean) over
	// multi-node jobs.
	SpreadPct LiveDist
	Frontier  int64
}

// AnalyzeLive reduces the live inputs to the paper's distribution and
// overshoot views.
func AnalyzeLive(in LiveInput) (*LiveReport, error) {
	if len(in.Jobs) == 0 {
		return nil, fmt.Errorf("core: no live jobs to analyze")
	}
	r := &LiveReport{
		System:      in.System,
		Jobs:        len(in.Jobs),
		SamplePower: in.SamplePower,
		Frontier:    in.Frontier,
	}
	var jobPower, overshoot, spread []float64
	for _, j := range in.Jobs {
		jobPower = append(jobPower, j.MeanW)
		if j.Samples >= 2 {
			overshoot = append(overshoot, j.PeakOvershootPct)
		}
		if j.Nodes >= 2 {
			spread = append(spread, j.SpatialSpreadPct)
		}
	}
	r.JobPower = DistFromValues(jobPower)
	if in.NodeTDPW > 0 {
		r.MeanTDPFracPct = 100 * r.JobPower.Mean / in.NodeTDPW
	}
	r.Overshoot = DistFromValues(overshoot)
	r.SpreadPct = DistFromValues(spread)
	return r, nil
}
