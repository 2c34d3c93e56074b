package core

import (
	"fmt"
	"math"

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
// ascending run of additions (a value added N times, each add rounded,
// never one multiply by N; addRepeated takes them a binade at a time),
// and the type-7 quantiles and CDF points read the same ranks
// (stats.RankReader).
func DistFromCounts(counts []stats.ValueCount) LiveDist {
	n := 0
	var sum float64
	for _, c := range counts {
		n += int(c.N)
		sum = addRepeated(sum, c.V, c.N)
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

// addRepeated is s after `for range n { s += v }`, bit for bit, in a
// step per binade of the sum rather than one per add.
//
// While s is positive, normal and finite it is K·u, K an integer in
// [2^52, 2^53) and u its binade's ulp, and an add that stays in the binade
// rounds K + v/u to an integer. Unless v/u ends in exactly ½ that is
// K + R, R = v/u rounded: the same R for every such add, so a run of m of
// them is one exact s + m·R·u. A ½ rounds to the even neighbour, which is
// also K + R (R = v/u rounded to even) once K is even — after at most one
// single add, since R is then even too. The add that would leave the
// binade, and any s or v this does not cover (zero, subnormal s, a
// mixed-sign pair, non-finite), is taken singly; a pair of negatives is
// the positive pair negated. An add that leaves s as it is leaves it so
// for good, which ends the loop (R = 0, a zero, ±Inf, NaN).
func addRepeated(s, v float64, n uint64) float64 {
	if s < 0 && v < 0 {
		return -addRepeated(-s, -v, n)
	}
	for n > 0 {
		b := math.Float64bits(s)
		exp := b >> 52 // s ≥ 0 here unless the pair is mixed
		if !(s > 0 && exp != 0 && exp != 0x7ff && v > 0 && v <= math.MaxFloat64) {
			next := s + v
			n--
			if math.Float64bits(next) == math.Float64bits(s) {
				break
			}
			s = next
			continue
		}
		u := ulpOfBinade(exp)
		k := b&(1<<52-1) | 1<<52
		q := v / u // exact, or so small that r is 0
		r := math.RoundToEven(q)
		var room uint64
		switch {
		case k&1 == 1 && q-math.Floor(q) == 0.5: // rounds up, to an even K
		case r == 0:
			return s
		case r < 1<<53:
			room = (1<<53 - 1 - k) / uint64(r)
		}
		if room == 0 {
			s += v
			n--
			continue
		}
		m := min(room, n)
		s += float64(m) * (r * u) // K + m·R < 2^53: every step exact
		n -= m
	}
	return s
}

// ulpOfBinade is the ulp of the normal float64s with biased exponent exp.
func ulpOfBinade(exp uint64) float64 {
	if exp > 52 {
		return math.Float64frombits((exp - 52) << 52)
	}
	return math.Float64frombits(1 << (exp - 1)) // subnormal
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
