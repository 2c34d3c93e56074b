package mlearn

import (
	"fmt"
	"sort"
)

// Hyper-parameter exploration for the ablation benches DESIGN.md calls
// out: how sensitive the paper's result is to the BDT's depth/leaf-size
// and KNN's k. The paper uses fixed "simple, low-overhead" settings; the
// grid search shows the result is flat across a wide region — i.e. the
// conclusion does not hinge on tuning.

// GridPoint is one evaluated hyper-parameter setting.
type GridPoint struct {
	Label  string
	Result EvalResult
}

// GridSearchBDT evaluates the tree over a depth × min-leaf grid and
// returns the points sorted by FracBelow10 descending (best first).
func GridSearchBDT(samples []Sample, depths, minLeaves []int, cfg EvalConfig) ([]GridPoint, error) {
	if len(depths) == 0 || len(minLeaves) == 0 {
		return nil, fmt.Errorf("mlearn: empty grid")
	}
	splits, cfg, err := drawSplits(samples, cfg)
	if err != nil {
		return nil, err
	}
	var out []GridPoint
	for _, d := range depths {
		for _, ml := range minLeaves {
			params := TreeParams{MaxDepth: d, MinLeaf: ml}
			res, err := evaluate(splits, func() Model { return NewBDT(params) }, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, GridPoint{
				Label:  fmt.Sprintf("depth=%d,minleaf=%d", d, ml),
				Result: res,
			})
		}
	}
	sortGrid(out)
	return out, nil
}

// GridSearchKNN evaluates KNN over candidate k values.
func GridSearchKNN(samples []Sample, ks []int, cfg EvalConfig) ([]GridPoint, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("mlearn: empty grid")
	}
	splits, cfg, err := drawSplits(samples, cfg)
	if err != nil {
		return nil, err
	}
	var out []GridPoint
	for _, k := range ks {
		params := KNNParams{K: k, UserMismatchPenalty: DefaultKNNParams().UserMismatchPenalty}
		res, err := evaluate(splits, func() Model { return NewKNN(params) }, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, GridPoint{Label: fmt.Sprintf("k=%d", k), Result: res})
	}
	sortGrid(out)
	return out, nil
}

func sortGrid(pts []GridPoint) {
	sort.SliceStable(pts, func(a, b int) bool {
		return pts[a].Result.FracBelow10 > pts[b].Result.FracBelow10
	})
}
