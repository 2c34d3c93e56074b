package mlearn

import (
	"fmt"
)

// This file holds the ablation tooling DESIGN.md calls out: a naive
// baseline predictor (a job's power is its user's historical mean) and a
// feature-ablation harness that quantifies how much each of the three
// pre-execution features contributes — the paper's narrative that the BDT
// splits "first, based on user, then number of nodes and last, wall time"
// made measurable.

// Baseline predicts a job's power as its user's mean training power —
// what operators do today without a model. Beating it is the bar any
// learned predictor must clear.
type Baseline struct {
	userMean map[string]float64
	global   float64
}

// NewBaseline returns an untrained baseline predictor.
func NewBaseline() *Baseline { return &Baseline{} }

// Name implements Model.
func (m *Baseline) Name() string { return "UserMean" }

// Fit implements Model.
func (m *Baseline) Fit(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("mlearn: baseline fit on empty training set")
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	var total float64
	for _, s := range samples {
		sums[s.User] += s.PowerW
		counts[s.User]++
		total += s.PowerW
	}
	m.userMean = make(map[string]float64, len(sums))
	for u, sum := range sums {
		m.userMean[u] = sum / float64(counts[u])
	}
	m.global = total / float64(len(samples))
	return nil
}

// Predict implements Model.
func (m *Baseline) Predict(f Features) float64 {
	if v, ok := m.userMean[f.User]; ok {
		return v
	}
	return m.global
}

// FeatureSet selects which of the three pre-execution features a model
// may see; masked features are replaced by constants before training and
// prediction.
type FeatureSet struct {
	User, Nodes, Wall bool
}

// String names the feature set, e.g. "user+nodes".
func (fs FeatureSet) String() string {
	out := ""
	add := func(on bool, name string) {
		if !on {
			return
		}
		if out != "" {
			out += "+"
		}
		out += name
	}
	add(fs.User, "user")
	add(fs.Nodes, "nodes")
	add(fs.Wall, "wall")
	if out == "" {
		return "none"
	}
	return out
}

// mask hides disabled features behind constants.
func (fs FeatureSet) mask(f Features) Features {
	if !fs.User {
		f.User = "*"
	}
	if !fs.Nodes {
		f.Nodes = 1
	}
	if !fs.Wall {
		f.WallHours = 1
	}
	return f
}

// maskedModel wraps a model so it only sees the enabled features.
type maskedModel struct {
	inner Model
	fs    FeatureSet
}

func (m *maskedModel) Name() string { return m.inner.Name() + "[" + m.fs.String() + "]" }

func (m *maskedModel) Fit(samples []Sample) error {
	masked := make([]Sample, len(samples))
	for i, s := range samples {
		masked[i] = Sample{Features: m.fs.mask(s.Features), PowerW: s.PowerW}
	}
	return m.inner.Fit(masked)
}

func (m *maskedModel) Predict(f Features) float64 { return m.inner.Predict(m.fs.mask(f)) }

// Masked wraps a model factory with a feature mask.
func Masked(factory func() Model, fs FeatureSet) func() Model {
	return func() Model { return &maskedModel{inner: factory(), fs: fs} }
}

// AblationResult is one row of the feature-ablation study.
type AblationResult struct {
	Features FeatureSet
	Result   EvalResult
}

// AblationSets is the build-up the paper's hierarchy suggests: user
// alone, then +nodes, then +wall, plus the no-user control.
var AblationSets = []FeatureSet{
	{User: true},
	{User: true, Nodes: true},
	{User: true, Nodes: true, Wall: true},
	{Nodes: true, Wall: true},
}

// EvaluateAblation runs the BDT with each feature subset.
func EvaluateAblation(samples []Sample, cfg EvalConfig) ([]AblationResult, error) {
	splits, cfg, err := drawSplits(samples, cfg)
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, fs := range AblationSets {
		res, err := evaluate(splits, Masked(func() Model { return NewBDT(DefaultTreeParams()) }, fs), cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Features: fs, Result: res})
	}
	return out, nil
}

// splitFeatures names what a node can split on, in the order the fit
// considers them.
var splitFeatures = [3]string{"user", "nodes", "wall"}

// splitFeature indexes splitFeatures for an interior node.
func (n *treeNode) splitFeature() int {
	if n.userSet != nil {
		return 0
	}
	return 1 + n.featIdx
}

// FeatureImportance reports how much of the fitted tree's splitting each
// feature does: a split at depth d counts 2^-d — the root 1, its children
// a half each — and the three totals are scaled to sum to 1. It measures
// which feature the tree leans on and how early, not SSE reduction.
func (t *BDT) FeatureImportance() map[string]float64 {
	var weights [3]float64
	var walk func(n *treeNode, weight float64)
	walk = func(n *treeNode, weight float64) {
		if n == nil || n.isLeaf {
			return
		}
		weights[n.splitFeature()] += weight
		walk(n.left, weight/2)
		walk(n.right, weight/2)
	}
	walk(t.root, 1)
	total := weights[0] + weights[1] + weights[2]
	imp := map[string]float64{}
	for i, name := range splitFeatures {
		imp[name] = weights[i]
		if total > 0 {
			imp[name] /= total
		}
	}
	return imp
}

// RootSplitFeature returns which feature the fitted tree splits on first
// ("user", "nodes", "wall", or "" for a leaf-only tree). The paper's BDT
// splits on the user first.
func (t *BDT) RootSplitFeature() string {
	if t.root == nil || t.root.isLeaf {
		return ""
	}
	return splitFeatures[t.root.splitFeature()]
}
