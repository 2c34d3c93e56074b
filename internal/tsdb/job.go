package tsdb

import (
	"hpcpower/internal/anomaly"
	"hpcpower/internal/stats"
)

// jobState carries the incremental characterization of one active job:
// the paper's per-job power metrics (§4) computed online, one sample at a
// time, in O(1) memory per job. A query at any instant returns the same
// quantities the offline analysis would compute over the samples seen so
// far — Welford moments, the readings counted for an exact median and
// p95 (quantiles.go), running peak overshoot, and the per-minute spatial
// spread across the job's nodes.
type jobState struct {
	acc   stats.Accumulator // all samples of the job, all nodes
	table powerTable        // the same samples, counted by reading
	nodes map[int]struct{}  // distinct nodes seen, added by Store.addToJob

	// fp is the job's anomaly-detection fingerprint (EWMA baselines,
	// CUSUM phase tracking, shape sketch), updated in the same locked
	// pass as the analytics above so detector reads are always
	// consistent with the store — and so the update costs no extra
	// lock acquisition or map lookup on the ingest hot path.
	fp anomaly.Fingerprint

	firstUnix, lastUnix int64

	// Spatial spread: per-minute min/max across nodes. Open minutes live
	// in a bounded window; when a minute is evicted its spread folds into
	// spreadAcc — queries merge the window on the fly, so nothing is lost.
	// The window is minutes[:nMinutes], ascending by minute: telemetry
	// arrives roughly in time order, so a sample usually lands in the
	// last entry and the oldest minute is always index 0.
	minutes   [spatialWindowMinutes]minuteAgg
	nMinutes  int
	spreadAcc stats.Accumulator
}

// minuteAgg is the min/max/count of one telemetry minute of one job.
type minuteAgg struct {
	minute   int64
	min, max float64
	n        int
}

// spatialWindowMinutes bounds the number of open (not yet folded)
// minutes per job. Telemetry arrives roughly in time order; a window of
// 16 tolerates generous agent skew at negligible memory cost.
const spatialWindowMinutes = 16

func newJobState() *jobState {
	return &jobState{nodes: map[int]struct{}{}}
}

// add folds one sample in and returns the bytes the job's table grew by.
// The sample's node is the caller's to add to nodes.
func (j *jobState) add(unix int64, w float64) int64 {
	j.acc.Add(w)
	grown := j.table.add(w)
	j.fp.Update(unix, w)
	if j.firstUnix == 0 || unix < j.firstUnix {
		j.firstUnix = unix
	}
	if unix > j.lastUnix {
		j.lastUnix = unix
	}
	j.addToMinute(unix/60, w)
	return grown
}

// addToMinute folds w into its minute of the open window, opening the
// minute if need be. Opening one more than the window holds closes the
// oldest: the spread of minutes[0] folds into spreadAcc — or, when the
// new minute is itself older than every open one, it closes at once
// and, holding a single sample, contributes nothing.
func (j *jobState) addToMinute(minute int64, w float64) {
	// i is where the minute belongs: every entry before it is older.
	i := j.nMinutes
	for i > 0 && j.minutes[i-1].minute >= minute {
		i--
	}
	if i < j.nMinutes && j.minutes[i].minute == minute {
		m := &j.minutes[i]
		if w < m.min {
			m.min = w
		}
		if w > m.max {
			m.max = w
		}
		m.n++
		return
	}
	if j.nMinutes == len(j.minutes) {
		if i == 0 {
			return
		}
		j.foldMinute(&j.minutes[0])
		i--
		copy(j.minutes[:i], j.minutes[1:])
	} else {
		copy(j.minutes[i+1:], j.minutes[i:j.nMinutes])
		j.nMinutes++
	}
	j.minutes[i] = minuteAgg{minute: minute, min: w, max: w, n: 1}
}

// foldMinute folds one closed minute into the spread accumulator. Minutes
// with a single sample carry no cross-node information and are skipped —
// the paper's spatial metrics are defined over multi-node jobs.
func (j *jobState) foldMinute(m *minuteAgg) {
	if m.n >= 2 {
		j.spreadAcc.Add(m.max - m.min)
	}
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
// still-open minutes into a copy of the spread accumulator. The fold
// visits minutes in ascending order so the floating-point reduction is
// deterministic: two queries of the same state — or of a state that was
// serialized, restored, and queried again — are byte-identical.
func (j *jobState) snapshot(id uint64) JobStats {
	spread := j.spreadAcc // value copy; folding below does not touch j
	for _, m := range j.minutes[:j.nMinutes] {
		if m.n >= 2 {
			spread.Add(m.max - m.min)
		}
	}
	med, p95 := j.table.quantiles(j.acc.N(), j.acc.Min(), j.acc.Max())
	s := JobStats{
		JobID:     id,
		Samples:   j.acc.N(),
		Nodes:     len(j.nodes),
		FirstUnix: j.firstUnix,
		LastUnix:  j.lastUnix,
		MeanW:     j.acc.Mean(),
		StdW:      j.acc.Std(),
		MinW:      j.acc.Min(),
		MaxW:      j.acc.Max(),
		MedianW:   med,
		P95W:      p95,
	}
	if s.MeanW > 0 {
		s.PeakOvershootPct = 100 * (s.MaxW - s.MeanW) / s.MeanW
	}
	if spread.N() > 0 {
		s.AvgSpatialSpreadW = spread.Mean()
		if s.MeanW > 0 {
			s.SpatialSpreadPct = 100 * s.AvgSpatialSpreadW / s.MeanW
		}
	}
	return s
}
