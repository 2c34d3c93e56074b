// Package mlearn implements the paper's pre-execution power prediction
// (§5, RQ9, Figs. 14-15) from scratch: three classic, light-weight models
// that predict a job's per-node power from the only three features
// available before execution — user id, node count, and requested
// walltime.
//
//   - BDT: a binary (CART) regression tree, the paper's best model
//     (90% of predictions under 10% absolute error);
//   - KNN: k-nearest-neighbour regression;
//   - FLDA: Fisher's linear discriminant analysis over power classes,
//     the weakest on diverse workloads (Emmy).
//
// The evaluation harness reproduces the paper's methodology: ten random
// 80/20 train/validation splits, constrained so every validation user is
// present in training, reporting pooled absolute-percentage-error CDFs
// (Fig. 14) and per-user mean error CDFs (Fig. 15).
package mlearn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hpcpower/internal/rng"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

// Features are the pre-execution job attributes the models may use.
type Features struct {
	User      string
	Nodes     int
	WallHours float64
}

// Sample couples features with the observed target.
type Sample struct {
	Features
	PowerW float64
}

// Model is a trainable per-node power predictor.
type Model interface {
	Name() string
	// Fit trains on the samples. Implementations must not retain the
	// slice header (they may copy).
	Fit(samples []Sample) error
	// Predict returns the predicted per-node power in watts.
	Predict(f Features) float64
}

// SamplesFromDataset extracts (features, power) pairs from a trace.
func SamplesFromDataset(ds *trace.Dataset) []Sample {
	out := make([]Sample, 0, len(ds.Jobs))
	for i := range ds.Jobs {
		j := &ds.Jobs[i]
		out = append(out, Sample{
			Features: Features{
				User:      j.User,
				Nodes:     j.Nodes,
				WallHours: j.ReqWall.Hours(),
			},
			PowerW: float64(j.AvgPowerPerNode),
		})
	}
	return out
}

// lnNodes and lnWall are the numeric encodings used by all models: node
// counts and walltimes are log-scaled (they span orders of magnitude).
func lnNodes(f Features) float64 { return math.Log(math.Max(float64(f.Nodes), 1)) }
func lnWall(f Features) float64  { return math.Log(math.Max(f.WallHours, 0.1)) }

// Split holds one train/validation partition.
type Split struct {
	Train, Valid []Sample
}

// StratifiedSplit draws a random 80/20 split with the paper's constraint:
// every user appearing in validation also appears in training. Users with
// a single job always land in training.
func StratifiedSplit(samples []Sample, validFrac float64, src *rng.Source) Split {
	if validFrac <= 0 || validFrac >= 1 {
		validFrac = 0.2
	}
	var sp Split
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	src.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })

	// First pass: pick one anchor (training) job per user — the first of
	// the user's jobs in shuffled order.
	anchor := map[string]int{}
	for _, idx := range order {
		u := samples[idx].User
		if _, ok := anchor[u]; !ok {
			anchor[u] = idx
		}
	}
	for _, idx := range order {
		s := samples[idx]
		if anchor[s.User] == idx {
			sp.Train = append(sp.Train, s)
			continue
		}
		if src.Float64() < validFrac {
			sp.Valid = append(sp.Valid, s)
		} else {
			sp.Train = append(sp.Train, s)
		}
	}
	return sp
}

// Prediction is one validation outcome.
type Prediction struct {
	Features
	Actual, Predicted float64
}

// AbsErrPct returns |predicted − actual| / actual × 100, the paper's
// absolute prediction error.
func (p Prediction) AbsErrPct() float64 {
	if p.Actual == 0 {
		return math.NaN()
	}
	return 100 * math.Abs(p.Predicted-p.Actual) / p.Actual
}

// EvalResult aggregates a model's validation performance across splits.
type EvalResult struct {
	Model string
	Reps  int
	N     int // pooled validation predictions
	// Fig. 14: pooled absolute-error CDF and its headline points.
	ErrCDF        []stats.Point
	MeanErrPct    float64
	MedianErrPct  float64
	FracBelow5Pct float64 // % of predictions with <5% error
	FracBelow10   float64 // % of predictions with <10% error
	// Fig. 15: per-user mean absolute error CDF.
	PerUserCDF      []stats.Point
	FracUsersBelow5 float64 // % of users with mean error <5%
}

// EvalConfig parameterizes Evaluate.
type EvalConfig struct {
	Reps      int // number of random splits (paper: 10)
	Seed      uint64
	CDFPoints int
}

// validFrac is the share of each split held out for validation (paper:
// 0.2).
const validFrac = 0.2

// DefaultEvalConfig returns the paper's evaluation methodology.
func DefaultEvalConfig(seed uint64) EvalConfig {
	return EvalConfig{Reps: 10, Seed: seed, CDFPoints: 200}
}

// Evaluate trains and validates the model built by factory on cfg.Reps
// random stratified splits and pools the results. The splits are fitted
// concurrently on up to GOMAXPROCS goroutines; factory is only called on
// the caller's goroutine, and the result does not depend on how many
// cores ran it.
func Evaluate(samples []Sample, factory func() Model, cfg EvalConfig) (EvalResult, error) {
	splits, cfg, err := drawSplits(samples, cfg)
	if err != nil {
		return EvalResult{}, err
	}
	return evaluate(splits, factory, cfg)
}

// eachRep calls fn(0) … fn(n-1), on up to GOMAXPROCS goroutines, and
// returns when all have. A caller keeps its result independent of the core
// count by giving each repetition its own slot to write.
func eachRep(n int, fn func(rep int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := int(next.Add(1)) - 1; rep < n; rep = int(next.Add(1)) - 1 {
				fn(rep)
			}
		}()
	}
	wg.Wait()
}

// drawSplits fills cfg's defaults, refuses a sample set too small to split
// and draws cfg.Reps stratified splits, the rep-th from the rep-th substream
// of cfg.Seed: a study draws once and evaluates every model and setting on
// the same splits.
func drawSplits(samples []Sample, cfg EvalConfig) ([]Split, EvalConfig, error) {
	if len(samples) < 20 {
		return nil, cfg, fmt.Errorf("mlearn: only %d samples", len(samples))
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 10
	}
	if cfg.CDFPoints <= 0 {
		cfg.CDFPoints = 200
	}
	root := rng.New(cfg.Seed)
	splits := make([]Split, cfg.Reps)
	eachRep(len(splits), func(rep int) {
		splits[rep] = StratifiedSplit(samples, validFrac, root.Split(uint64(rep)))
	})
	return splits, cfg, nil
}

// score fits one model per split and pools the absolute errors of the
// validation predictions, all of them and by user, in repetition order: the
// lists a single goroutine walking the splits in turn would have built. The
// splits are only read, so several models may be scored on the same ones.
func score(splits []Split, factory func() Model) (name string, errs []float64, perUser map[string][]float64, err error) {
	models := make([]Model, len(splits))
	for rep := range models {
		models[rep] = factory()
		name = models[rep].Name()
	}
	// One slot per repetition: the absolute error of each validation
	// sample in order, or the Fit error.
	errPct, fitErr := make([][]float64, len(splits)), make([]error, len(splits))
	eachRep(len(splits), func(rep int) {
		m, sp := models[rep], splits[rep]
		if fitErr[rep] = m.Fit(sp.Train); fitErr[rep] != nil {
			return
		}
		errPct[rep] = make([]float64, len(sp.Valid))
		for i, v := range sp.Valid {
			p := Prediction{Features: v.Features, Actual: v.PowerW, Predicted: m.Predict(v.Features)}
			errPct[rep][i] = p.AbsErrPct()
		}
	})
	perUser = map[string][]float64{}
	for rep, sp := range splits {
		if fitErr[rep] != nil {
			return name, nil, nil, fitErr[rep]
		}
		for i, v := range sp.Valid {
			if e := errPct[rep][i]; !math.IsNaN(e) {
				errs = append(errs, e)
				perUser[v.User] = append(perUser[v.User], e)
			}
		}
	}
	if len(errs) == 0 {
		return name, nil, nil, fmt.Errorf("mlearn: no valid predictions")
	}
	return name, errs, perUser, nil
}

// evaluate scores the model on the splits and summarises the pooled errors.
func evaluate(splits []Split, factory func() Model, cfg EvalConfig) (EvalResult, error) {
	name, errs, perUserErrs, err := score(splits, factory)
	if err != nil {
		return EvalResult{}, err
	}
	cdf := stats.NewECDF(errs)
	res := EvalResult{
		Model: name, Reps: len(splits), N: len(errs),
		ErrCDF:        cdf.Points(cfg.CDFPoints),
		MeanErrPct:    cdf.Mean(),
		MedianErrPct:  cdf.Quantile(0.5),
		FracBelow5Pct: 100 * cdf.FractionBelow(5),
		FracBelow10:   100 * cdf.FractionBelow(10),
	}
	var userMeans []float64
	for _, es := range perUserErrs {
		userMeans = append(userMeans, stats.Mean(es))
	}
	uCDF := stats.NewECDF(userMeans)
	res.PerUserCDF = uCDF.Points(cfg.CDFPoints)
	res.FracUsersBelow5 = 100 * uCDF.FractionBelow(5)
	return res, nil
}

// EvaluateAll runs the paper's three models (Fig. 14) on one dataset,
// all three on the same cfg.Reps splits.
func EvaluateAll(samples []Sample, cfg EvalConfig) ([]EvalResult, error) {
	splits, cfg, err := drawSplits(samples, cfg)
	if err != nil {
		return nil, err
	}
	factories := []func() Model{
		func() Model { return NewBDT(DefaultTreeParams()) },
		func() Model { return NewKNN(DefaultKNNParams()) },
		func() Model { return NewFLDA(DefaultFLDAParams()) },
	}
	var out []EvalResult
	for _, f := range factories {
		r, err := evaluate(splits, f, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
