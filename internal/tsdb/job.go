package tsdb

import (
	"math"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/stats"
)

// jobState carries the incremental characterization of one active job:
// the paper's per-job power metrics (§4) computed online, one sample at a
// time, in O(1) memory per job. A query at any instant returns the same
// quantities the offline analysis would compute over the samples seen so
// far — exact moments, the readings counted for an exact median and p95
// (quantiles.go), running peak overshoot, and the per-minute spatial
// spread across the job's nodes. Each is held once. The moments and the
// table depend on the multiset of samples alone; the spread does too as
// long as no sample comes spatialWindowMinutes behind the newest minute
// of its job seen, and the trend as long as none comes foldLagMinutes
// behind it.
type jobState struct {
	mom   stats.Moments    // all samples of the job
	table powerTable       // all samples of the job, counted by reading
	nodes map[int]struct{} // distinct nodes seen, added by Store.addToJob

	firstUnix, lastUnix int64

	// Open minutes: the window minutes[:nMinutes], ascending by minute,
	// holds the readings of the job's newest spatialWindowMinutes minutes.
	// Telemetry arrives roughly in time order, so a sample usually lands
	// in the last entry and the oldest minute is always index 0. When a
	// minute leaves the window its spread, max − min across the job's
	// nodes, goes into spread; queries merge the window on the fly.
	minutes  [spatialWindowMinutes]minuteAgg
	nMinutes int
	spread   stats.Moments

	// trend is the time-series part of the job's anomaly fingerprint
	// (EWMA baselines, CUSUM phase tracking, shape sketch). It folds each
	// open minute's mean power and the variance of its readings, in
	// minute order, when the minute foldLagMinutes later opens; folded
	// is the newest minute closed. A sample for a closed minute is late:
	// it counts everywhere but in the trend.
	trend  anomaly.Trend
	folded int64
}

// minuteAgg is the readings of one open minute of one job.
type minuteAgg struct {
	minute int64
	stats.Moments
}

// spatialWindowMinutes bounds the number of open minutes per job, those
// whose spread is not yet in the spread accumulator. Telemetry arrives
// roughly in time order; a window of 16 tolerates generous agent skew at
// 80 bytes a minute.
const spatialWindowMinutes = 16

// foldLagMinutes is L: a minute folds into the trend when the minute L
// later opens, so agents' batches may interleave by up to L minutes of
// sample time without changing what the detectors see. Live agents ship
// each minute's readings within seconds of taking them; a sample that
// comes later counts in Store.LateSamples.
const foldLagMinutes = 2

func newJobState() *jobState {
	return &jobState{nodes: map[int]struct{}{}, folded: math.MinInt64}
}

// add folds one sample in. It returns the bytes the job's table grew by
// and whether the sample came for a minute the trend has closed. The
// sample's node is the caller's to add to nodes.
func (j *jobState) add(unix int64, w float64) (grown int64, late bool) {
	grown = j.table.add(w)
	j.mom.Add(w)
	if j.firstUnix == 0 || unix < j.firstUnix {
		j.firstUnix = unix
	}
	if unix > j.lastUnix {
		j.lastUnix = unix
	}
	minute := unix / 60
	if closed := minute - foldLagMinutes; closed > j.folded {
		j.foldThrough(closed)
	}
	j.addToMinute(minute, w)
	return grown, minute <= j.folded
}

// foldThrough folds the open minutes after folded up to closed into the
// trend, oldest first, each as its mean and the variance of its readings
// — as its largest reading if one of them has no exact code (about 214 MW
// or more) — and makes closed the newest minute folded. The minutes it
// folds are in the window: they are among the newest foldLagMinutes.
func (j *jobState) foldThrough(closed int64) {
	i := j.nMinutes
	for i > 0 && j.minutes[i-1].minute > j.folded {
		i--
	}
	for ; i < j.nMinutes && j.minutes[i].minute <= closed; i++ {
		m := &j.minutes[i]
		w, variance := m.Max, 0.0
		if !m.Over {
			w, variance = m.Mean(), m.Variance()
		}
		j.trend.Update(m.minute*60, w, variance)
	}
	j.folded = closed
}

// addToMinute adds w to its minute of the window, opening the minute if
// need be. Opening one more than the window holds closes the oldest: the
// spread of minutes[0] goes into spread — or, when the new minute is
// itself older than every open one, it closes at once and, holding a
// single sample, contributes nothing.
func (j *jobState) addToMinute(minute int64, w float64) {
	// i is where the minute belongs: every entry before it is older.
	i := j.nMinutes
	for i > 0 && j.minutes[i-1].minute >= minute {
		i--
	}
	if i < j.nMinutes && j.minutes[i].minute == minute {
		j.minutes[i].Add(w)
		return
	}
	if j.nMinutes == len(j.minutes) {
		if i == 0 {
			return
		}
		j.minutes[0].spreadInto(&j.spread)
		i--
		copy(j.minutes[:i], j.minutes[1:])
	} else {
		copy(j.minutes[i+1:], j.minutes[i:j.nMinutes])
		j.nMinutes++
	}
	j.minutes[i] = minuteAgg{minute: minute}
	j.minutes[i].Add(w)
}

// spreadInto adds the minute's spread, max − min, to acc. Minutes with a
// single sample carry no cross-node information and are skipped — the
// paper's spatial metrics are defined over multi-node jobs.
func (m *minuteAgg) spreadInto(acc *stats.Moments) {
	if m.N >= 2 {
		acc.Add(m.Max - m.Min)
	}
}

// fingerprint is what the detectors read: the trend, and the count, sum,
// peak and newest time of all the job's samples.
func (j *jobState) fingerprint() anomaly.Fingerprint {
	return anomaly.Fingerprint{N: j.mom.N, Sum: j.mom.Total(), Max: j.mom.Max, Last: j.lastUnix, Trend: j.trend}
}

// JobStats is the live characterization returned by GET /v1/jobs/{id}/power:
// the streaming counterparts of the paper's per-job metrics.
type JobStats struct {
	JobID   uint64 `json:"job"`
	Samples int64  `json:"samples"`
	Nodes   int    `json:"nodes"`

	FirstUnix int64 `json:"first_unix"`
	LastUnix  int64 `json:"last_unix"`

	MeanW float64 `json:"mean_w"`
	StdW  float64 `json:"std_w"`
	MinW  float64 `json:"min_w"`
	MaxW  float64 `json:"max_w"`
	// MedianW and P95W are the type-7 quantiles of every sample of the
	// job, exact while its readings are on the 0.1 W grid and span at most
	// 204.8 W, otherwise within half a bucket of the table they are read
	// from (quantiles.go).
	MedianW float64 `json:"median_w"`
	P95W    float64 `json:"p95_w"`

	// PeakOvershootPct is (max − mean)/mean in percent (Fig. 6/7a).
	PeakOvershootPct float64 `json:"peak_overshoot_pct"`
	// AvgSpatialSpreadW is the mean over minutes of (max node power −
	// min node power), watts (Fig. 8/9a); zero until a minute has ≥2 nodes.
	AvgSpatialSpreadW float64 `json:"avg_spatial_spread_w"`
	// SpatialSpreadPct is AvgSpatialSpreadW over MeanW in percent (Fig. 9b).
	SpatialSpreadPct float64 `json:"spatial_spread_pct"`
}

// snapshot reduces the state to JobStats without mutating it, folding the
// still-open minutes into a copy of the spread accumulator. The
// accumulators are exact, so the answer is the same whatever order the
// samples, or the minutes, were folded in.
func (j *jobState) snapshot(id uint64) JobStats {
	spread := j.spread // value copy; folding below does not touch j
	for i := range j.minutes[:j.nMinutes] {
		j.minutes[i].spreadInto(&spread)
	}
	all := &j.mom
	med, p95 := j.table.quantiles(all.N, all.Min, all.Max)
	s := JobStats{
		JobID:     id,
		Samples:   all.N,
		Nodes:     len(j.nodes),
		FirstUnix: j.firstUnix,
		LastUnix:  j.lastUnix,
		MeanW:     all.Mean(),
		StdW:      all.Std(),
		MinW:      all.Min,
		MaxW:      all.Max,
		MedianW:   med,
		P95W:      p95,
	}
	if s.MeanW > 0 {
		s.PeakOvershootPct = 100 * (s.MaxW - s.MeanW) / s.MeanW
	}
	if spread.N > 0 {
		s.AvgSpatialSpreadW = spread.Mean()
		if s.MeanW > 0 {
			s.SpatialSpreadPct = 100 * s.AvgSpatialSpreadW / s.MeanW
		}
	}
	return s
}
