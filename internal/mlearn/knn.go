package mlearn

import "fmt"

// KNNParams tunes the k-nearest-neighbour regressor.
type KNNParams struct {
	K int
	// UserMismatchPenalty is added to the distance when the query and the
	// candidate belong to different users. Same-user history dominates,
	// matching how the paper describes KNN clustering jobs with "small
	// distance" in (nodes, walltime) space.
	UserMismatchPenalty float64
}

// DefaultKNNParams returns the parameters used for Fig. 14.
func DefaultKNNParams() KNNParams {
	return KNNParams{K: 5, UserMismatchPenalty: 4.0}
}

// KNN predicts a job's power as the mean of its k nearest training jobs
// in (user, ln nodes, ln walltime) space. Its characteristic failure mode
// — blending configurations that are close in size/walltime but far in
// power — is exactly the weakness the paper reports.
//
// Neighbours are ordered nearer first; among equidistant candidates (a
// user resubmitting one (nodes, walltime) configuration, the common case)
// the one earlier in the training set wins, so the prediction is a
// function of the training set and its order alone.
type KNN struct {
	params KNNParams
	// samples grouped by user for fast same-user lookup.
	byUser map[string][]knnRow
	all    []knnRow
	global float64
}

type knnRow struct {
	x [2]float64
	y float64
}

// NewKNN returns an untrained model.
func NewKNN(p KNNParams) *KNN {
	if p.K <= 0 {
		p.K = 5
	}
	return &KNN{params: p}
}

// Name implements Model.
func (k *KNN) Name() string { return "KNN" }

// Fit implements Model.
func (k *KNN) Fit(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("mlearn: KNN fit on empty training set")
	}
	k.byUser = map[string][]knnRow{}
	k.all = make([]knnRow, 0, len(samples))
	var sum float64
	for _, s := range samples {
		row := knnRow{x: [2]float64{lnNodes(s.Features), lnWall(s.Features)}, y: s.PowerW}
		k.byUser[s.User] = append(k.byUser[s.User], row)
		k.all = append(k.all, row)
		sum += s.PowerW
	}
	k.global = sum / float64(len(samples))
	return nil
}

// neighbour is one selected candidate: its distance to the query and its
// target.
type neighbour struct{ d, y float64 }

// knnStackK is the largest K whose selection lives on Predict's stack; a
// larger K costs one allocation per call.
const knnStackK = 32

// Predict implements Model.
func (k *KNN) Predict(f Features) float64 {
	if len(k.all) == 0 {
		return k.global
	}
	q := [2]float64{lnNodes(f), lnWall(f)}
	var stack [knnStackK]neighbour
	best := stack[:0]
	if k.params.K > len(stack) {
		best = make([]neighbour, 0, k.params.K)
	}
	// Same-user candidates at zero penalty.
	own := k.byUser[f.User]
	for i := range own {
		best = keepNearest(best, k.params.K, dist2(q, own[i].x), own[i].y)
	}
	// If the user's history cannot fill k neighbours, widen to the whole
	// training set with the mismatch penalty.
	if len(own) < k.params.K {
		for i := range k.all {
			best = keepNearest(best, k.params.K, dist2(q, k.all[i].x)+k.params.UserMismatchPenalty, k.all[i].y)
		}
	}
	var sum float64
	for _, n := range best {
		sum += n.y
	}
	return sum / float64(len(best))
}

// keepNearest offers one candidate to best, the at most k nearest seen so
// far in ascending distance. A candidate no nearer than the current k-th
// is dropped, and one as near as a kept neighbour goes behind it: earlier
// candidates win ties.
func keepNearest(best []neighbour, k int, d, y float64) []neighbour {
	if len(best) == k {
		if !(d < best[k-1].d) {
			return best
		}
		best = best[:k-1]
	}
	i := len(best)
	best = best[:i+1]
	for ; i > 0 && d < best[i-1].d; i-- {
		best[i] = best[i-1]
	}
	best[i] = neighbour{d, y}
	return best
}

func dist2(a, b [2]float64) float64 {
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	return d0*d0 + d1*d1
}
