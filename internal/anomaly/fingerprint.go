// Package anomaly is the streaming power-fingerprint anomaly detector
// behind powserved's alerting pipeline. It turns the paper's central
// observation — HPC job power behavior is highly structured (stable
// per-job means, a tight 10–12% peak-overshoot envelope, recognizable
// temporal phases) — into an online detector: deviations from that
// structure are signal, not noise.
//
// The package has three layers:
//
//   - Fingerprint: an O(1), allocation-free per-job sketch. Its Trend —
//     fast/slow EWMA baselines, an EWMA variance proxy, CUSUM
//     phase-change detection and a small FFT-free shape histogram — is
//     updated once per closed job-minute on the ingest path (inside the
//     tsdb job-shard lock); its count, sum, peak and last time are the
//     job's own moments, read at lookup.
//   - Rules + detectors: a pluggable rule set (cryptomining-like
//     flatline, zombie job, runaway overshoot, baseline drift) evaluated
//     against fingerprints once per ingested batch, off the per-sample
//     path.
//   - Engine: per-(job,rule) hysteresis state machines (min-duration
//     fire, clear-duration resolve, dedup while firing), a ring-buffered
//     event store, and pluggable delivery sinks.
//
// All detector timing is driven by sample timestamps, never wall clock,
// so WAL replay, snapshot restore, and failover reproduce the exact
// alert decisions of the original run.
package anomaly

import "math"

// EWMA smoothing factors, per folded value: one per job-minute, the
// paper's sampling. Fast tracks the current phase; slow is the
// baseline the detectors compare against.
const (
	alphaFast = 0.25
	alphaSlow = 0.05
	alphaVar  = 0.10

	// CUSUM slack and reset thresholds as fractions of the slow
	// baseline: residuals under 10% of baseline are "in phase" noise
	// (the paper's jobs hold ~11% overall power std); an accumulated
	// one-sided excursion worth 50% of baseline is a phase change.
	cusumSlackFrac = 0.10
	cusumResetFrac = 0.50
	cusumSlackMinW = 1.0
	cusumResetMinW = 5.0

	// phaseMergeSec merges CUSUM re-triggers into one phase shift: after
	// a genuine step change the EWMAs take a few samples to converge and
	// the CUSUM fires again in the same direction within minutes. Those
	// are echoes of a single transition — folding them keeps a step at
	// run length one, so only a sustained ramp (shifts spaced further
	// apart) can build the drift detector's run.
	phaseMergeSec = 5 * 60
)

// ShapeBuckets is the size of the fingerprint's occupancy histogram:
// each folded value lands in a bucket by its ratio to the slow baseline. The
// histogram is the FFT-free shape sketch — a flat job occupies one
// bucket, a phased job spreads across several — and doubles as a cheap
// power signature for "what is this cluster running" style analysis.
const ShapeBuckets = 8

// Fingerprint is what the detectors read of one job: four numbers of
// all its samples, which the store fills from the job's one copy of them
// at lookup, and the Trend of its closed minutes. It is a plain value
// struct — fixed size, no pointers — so a lookup allocates nothing.
type Fingerprint struct {
	N    int64   `json:"n"`
	Sum  float64 `json:"sum"`
	Max  float64 `json:"max"`
	Last int64   `json:"last_unix"`

	Trend
}

// Trend is the time-series part of a job's fingerprint, folded one value
// at a time in time order: the store folds each closed job-minute's mean
// power and the variance of its readings, in minute order (tsdb's
// job.go). Its fields are its whole state,
// each exported with a JSON tag, so a restored trend continues the
// stream bit-for-bit.
type Trend struct {
	// EWFast/EWSlow are the phase-tracking and baseline EWMAs; EWVar is
	// an EWMA of the squared fast-residual plus the folded value's own
	// variance (a windowed variance proxy);
	// FastPeak is the highest sustained (fast-EWMA) power seen.
	EWFast   float64 `json:"ew_fast"`
	EWSlow   float64 `json:"ew_slow"`
	EWVar    float64 `json:"ew_var"`
	FastPeak float64 `json:"fast_peak"`

	// One-sided CUSUM accumulators over the raw residual vs. the slow
	// baseline. When either exceeds the reset threshold the trend
	// records a phase change, adopts the fast EWMA as the new baseline,
	// and zeroes both sides.
	CUSUMPos float64 `json:"cusum_pos"`
	CUSUMNeg float64 `json:"cusum_neg"`

	// Phases counts baseline adoptions (phase changes); LastPhase is the
	// time of the latest one. RunDir/RunLen/RunBase track the current run
	// of same-direction phase shifts: a genuine step change is one shift,
	// a slow ramp is a run of them — the drift detector's signal. RunBase
	// is the baseline power when the run started.
	Phases    int64   `json:"phases"`
	LastPhase int64   `json:"last_phase_unix,omitempty"`
	RunDir    int8    `json:"run_dir,omitempty"`
	RunLen    int32   `json:"run_len,omitempty"`
	RunBase   float64 `json:"run_base,omitempty"`

	// Shape is the occupancy histogram of folded power relative to the
	// slow baseline (see ShapeBuckets); its counts add up to the values
	// folded.
	Shape [ShapeBuckets]int64 `json:"shape"`
}

// folds is the number of values folded.
func (f *Trend) folds() int64 {
	var n int64
	for _, c := range f.Shape {
		n += c
	}
	return n
}

// Update folds one value into the trend: w watts at time unix, the mean
// of readings whose variance about w is variance (0 for one reading) — a
// job-minute of a multi-node job, whose spread across nodes the variance
// proxy keeps as folding each reading would. Branch-light float
// arithmetic, no divisions, no allocations.
func (f *Trend) Update(unix int64, w, variance float64) {
	if f.folds() == 0 {
		// The first value's variance is all the variance proxy knows: a
		// multi-node job's first minute starts it at the nodes' spread.
		f.EWFast, f.EWSlow, f.FastPeak = w, w, w
		f.EWVar = variance
		f.Shape[shapeBucket(w, w)]++
		return
	}
	f.EWFast += alphaFast * (w - f.EWFast)
	r := w - f.EWFast
	// EWVar stays at +Inf once a residual above ≈ 1.3e154 W puts it
	// there: r*r − EWVar would make it NaN on the next value.
	if f.EWVar <= math.MaxFloat64 {
		f.EWVar += alphaVar * (r*r + variance - f.EWVar)
	}
	f.EWSlow += alphaSlow * (w - f.EWSlow)
	if f.EWFast > f.FastPeak {
		f.FastPeak = f.EWFast
	}
	f.Shape[shapeBucket(w, f.EWSlow)]++

	d := w - f.EWSlow
	k := cusumSlackFrac * f.EWSlow
	if k < cusumSlackMinW {
		k = cusumSlackMinW
	}
	if p := f.CUSUMPos + d - k; p > 0 {
		f.CUSUMPos = p
	} else {
		f.CUSUMPos = 0
	}
	if n := f.CUSUMNeg - d - k; n > 0 {
		f.CUSUMNeg = n
	} else {
		f.CUSUMNeg = 0
	}
	h := cusumResetFrac * f.EWSlow
	if h < cusumResetMinW {
		h = cusumResetMinW
	}
	if f.CUSUMPos > h || f.CUSUMNeg > h {
		dir := int8(1)
		if f.CUSUMNeg > f.CUSUMPos {
			dir = -1
		}
		f.phaseShift(dir, unix)
	}
}

// phaseShift records a detected phase change and adopts the fast EWMA
// as the new baseline so the CUSUM re-arms against the new level.
func (f *Trend) phaseShift(dir int8, unix int64) {
	if dir == f.RunDir && f.LastPhase != 0 && unix-f.LastPhase <= phaseMergeSec {
		// Convergence echo of the previous shift (see phaseMergeSec):
		// re-adopt the baseline but do not extend the run.
		f.LastPhase = unix
		f.EWSlow = f.EWFast
		f.CUSUMPos, f.CUSUMNeg = 0, 0
		return
	}
	f.Phases++
	f.LastPhase = unix
	if dir == f.RunDir {
		f.RunLen++
	} else {
		f.RunDir = dir
		f.RunLen = 1
		f.RunBase = f.EWSlow
	}
	f.EWSlow = f.EWFast
	f.CUSUMPos, f.CUSUMNeg = 0, 0
}

// shapeBucket maps a sample to its occupancy bucket by ratio to the
// baseline, without a division: thresholds are baseline multiples.
func shapeBucket(w, base float64) int {
	if base <= 0 {
		return ShapeBuckets - 1
	}
	switch {
	case w < 0.25*base:
		return 0
	case w < 0.50*base:
		return 1
	case w < 0.75*base:
		return 2
	case w < 0.95*base:
		return 3
	case w < 1.05*base:
		return 4
	case w < 1.25*base:
		return 5
	case w < 1.50*base:
		return 6
	default:
		return 7
	}
}

// Mean returns the lifetime mean power.
func (f *Fingerprint) Mean() float64 {
	if f.N == 0 {
		return 0
	}
	return f.Sum / float64(f.N)
}

// RelStdFast returns the windowed relative standard deviation — the
// EWMA variance proxy over the fast baseline — the flatline detector's
// variance-collapse signal.
func (f *Trend) RelStdFast() float64 {
	if f.EWFast <= 0 || f.EWVar <= 0 {
		return 0
	}
	return math.Sqrt(f.EWVar) / f.EWFast
}

// OvershootPct returns the lifetime peak overshoot (max − mean)/mean in
// percent, over every sample of the job.
func (f *Fingerprint) OvershootPct() float64 {
	m := f.Mean()
	if m <= 0 {
		return 0
	}
	return 100 * (f.Max - m) / m
}

// DriftFrac returns the fractional baseline movement of the current
// same-direction phase-shift run (0 when no run is in progress).
func (f *Trend) DriftFrac() float64 {
	if f.RunLen == 0 || f.RunBase <= 0 {
		return 0
	}
	return math.Abs(f.EWSlow-f.RunBase) / f.RunBase
}

// Valid reports whether a decoded trend is internally coherent — the
// gate the snapshot-restore path uses so a corrupt or adversarial
// payload is rejected instead of poisoning detector math with NaNs. Only
// EWVar may be +Inf: it overflows on valid readings above ≈ 1.3e154 W,
// and a restore must take what Update made. Every other field is a copy
// or a blend of finite values, and an infinity there would turn NaN on
// the next Update. A trend that has folded nothing is the zero value.
func (f *Trend) Valid() bool {
	for _, c := range f.Shape {
		if c < 0 {
			return false
		}
	}
	if f.folds() == 0 {
		return *f == Trend{}
	}
	if math.IsNaN(f.EWVar) || f.EWVar < 0 {
		return false
	}
	for _, v := range [...]float64{f.EWFast, f.EWSlow, f.FastPeak, f.CUSUMPos, f.CUSUMNeg, f.RunBase} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
