package mlearn

import (
	"reflect"
	"strings"
	"testing"
)

func TestBaseline(t *testing.T) {
	data := []Sample{
		{Features: Features{User: "a", Nodes: 1, WallHours: 1}, PowerW: 100},
		{Features: Features{User: "a", Nodes: 2, WallHours: 2}, PowerW: 120},
		{Features: Features{User: "b", Nodes: 1, WallHours: 1}, PowerW: 200},
	}
	m := NewBaseline()
	if m.Name() != "UserMean" {
		t.Errorf("name = %s", m.Name())
	}
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(Features{User: "a"}); got != 110 {
		t.Errorf("user a = %v", got)
	}
	if got := m.Predict(Features{User: "b"}); got != 200 {
		t.Errorf("user b = %v", got)
	}
	// Unseen user: global mean (100+120+200)/3 = 140.
	if got := m.Predict(Features{User: "z"}); got != 140 {
		t.Errorf("unseen = %v", got)
	}
	if err := NewBaseline().Fit(nil); err == nil {
		t.Error("empty fit accepted")
	}
}

func TestFeatureSetString(t *testing.T) {
	cases := []struct {
		fs   FeatureSet
		want string
	}{
		{FeatureSet{}, "none"},
		{FeatureSet{User: true}, "user"},
		{FeatureSet{User: true, Wall: true}, "user+wall"},
		{FeatureSet{User: true, Nodes: true, Wall: true}, "user+nodes+wall"},
	}
	for _, c := range cases {
		if got := c.fs.String(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.fs, got, c.want)
		}
	}
}

func TestMaskedModelHidesFeatures(t *testing.T) {
	// A model trained with the user masked must give the same prediction
	// for every user.
	data := samples(t, "Emmy")
	factory := Masked(func() Model { return NewBDT(DefaultTreeParams()) }, FeatureSet{Nodes: true, Wall: true})
	m := factory()
	if !strings.Contains(m.Name(), "nodes+wall") {
		t.Errorf("name = %s", m.Name())
	}
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	p1 := m.Predict(Features{User: "u001", Nodes: 8, WallHours: 12})
	p2 := m.Predict(Features{User: "u999", Nodes: 8, WallHours: 12})
	if p1 != p2 {
		t.Errorf("masked user still matters: %v vs %v", p1, p2)
	}
}

func TestAblationOrdering(t *testing.T) {
	data := samples(t, "Emmy")
	cfg := EvalConfig{Reps: 3, Seed: 5}
	results, err := EvaluateAblation(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(AblationSets) {
		t.Fatalf("results = %d", len(results))
	}
	get := func(name string) EvalResult {
		for _, r := range results {
			if r.Features.String() == name {
				return r.Result
			}
		}
		t.Fatalf("missing ablation %q", name)
		return EvalResult{}
	}
	userOnly := get("user")
	full := get("user+nodes+wall")
	noUser := get("nodes+wall")
	// Adding features to the user must not hurt (within noise).
	if full.MeanErrPct > userOnly.MeanErrPct+1 {
		t.Errorf("full features (%v%%) worse than user-only (%v%%)", full.MeanErrPct, userOnly.MeanErrPct)
	}
	// The user feature carries most of the signal: dropping it hurts a lot.
	if noUser.MeanErrPct < full.MeanErrPct+2 {
		t.Errorf("dropping the user barely hurts: %v%% vs %v%%", noUser.MeanErrPct, full.MeanErrPct)
	}
}

func TestBaselineWorseThanBDT(t *testing.T) {
	data := samples(t, "Emmy")
	cfg := EvalConfig{Reps: 3, Seed: 6}
	base, err := Evaluate(data, func() Model { return NewBaseline() }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bdt, err := Evaluate(data, func() Model { return NewBDT(DefaultTreeParams()) }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(bdt.FracBelow10 > base.FracBelow10) {
		t.Errorf("BDT (%v%%) does not beat the user-mean baseline (%v%%)",
			bdt.FracBelow10, base.FracBelow10)
	}
}

func TestFeatureImportanceAndRootSplit(t *testing.T) {
	data := samples(t, "Emmy")
	m := NewBDT(DefaultTreeParams())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance()
	var total float64
	for _, v := range imp {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("importances sum to %v", total)
	}
	// The shares are scaled by a total summed in a fixed order, not in map
	// order: every call gives the same bits.
	for i := 0; i < 50; i++ {
		if again := m.FeatureImportance(); !reflect.DeepEqual(again, imp) {
			t.Fatalf("call %d: importance %v, first call %v", i+2, again, imp)
		}
	}
	// The paper describes a user-first hierarchy; on synthetic data the
	// root may pick walltime instead (it proxies the application), but
	// the user must remain a heavyweight feature near the top.
	if root := m.RootSplitFeature(); root != "user" && root != "wall" {
		t.Errorf("root split = %q, want user or wall", root)
	}
	t.Logf("feature importance: %v", imp)
	if imp["user"] < 0.2 {
		t.Errorf("user importance = %v, want substantial", imp["user"])
	}
	// Untrained tree edge cases.
	empty := NewBDT(DefaultTreeParams())
	if empty.RootSplitFeature() != "" {
		t.Error("untrained tree has a root split")
	}
}

func TestPredictWithStd(t *testing.T) {
	data := samples(t, "Emmy")
	m := NewBDT(DefaultTreeParams())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	for _, s := range data[:50] {
		pred, std, n := m.PredictWithStd(s.Features)
		if pred <= 0 {
			t.Fatalf("pred = %v", pred)
		}
		if std < 0 {
			t.Fatalf("std = %v", std)
		}
		if n < 1 {
			t.Fatalf("leaf samples = %d", n)
		}
		// PredictWithStd agrees with Predict.
		if p2 := m.Predict(s.Features); p2 != pred {
			t.Fatalf("Predict (%v) != PredictWithStd (%v)", p2, pred)
		}
	}
	// Untrained model: fallback with zero confidence.
	empty := NewBDT(DefaultTreeParams())
	if _, std, n := empty.PredictWithStd(Features{}); std != 0 || n != 0 {
		t.Errorf("untrained std/n = %v/%d", std, n)
	}
}

func TestPredictStdBoundsThrottleRisk(t *testing.T) {
	// Operators cap at prediction + k·std: with k=3, the observed power
	// of the SAME configuration should rarely exceed the cap.
	data := samples(t, "Emmy")
	m := NewBDT(DefaultTreeParams())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	exceed, total := 0, 0
	for _, s := range data {
		pred, std, n := m.PredictWithStd(s.Features)
		if n < 5 {
			continue // leaf too small for a meaningful bound
		}
		total++
		if s.PowerW > pred+3*std+1e-9 {
			exceed++
		}
	}
	if total == 0 {
		t.Fatal("no populated leaves")
	}
	if frac := float64(exceed) / float64(total); frac > 0.05 {
		t.Errorf("power exceeded pred+3·std for %.1f%% of jobs", 100*frac)
	}
}

func TestGridSearchBDT(t *testing.T) {
	data := samples(t, "Emmy")
	cfg := EvalConfig{Reps: 2, Seed: 8}
	grid, err := GridSearchBDT(data, []int{4, 12, 22}, []int{1, 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 6 {
		t.Fatalf("grid points = %d", len(grid))
	}
	// Sorted best-first.
	for i := 1; i < len(grid); i++ {
		if grid[i].Result.FracBelow10 > grid[i-1].Result.FracBelow10 {
			t.Fatalf("grid not sorted at %d", i)
		}
	}
	// A severely depth-limited tree must underperform the default region:
	// robustness of the paper's conclusion to tuning, not knife-edge.
	byLabel := map[string]EvalResult{}
	for _, g := range grid {
		byLabel[g.Label] = g.Result
	}
	if byLabel["depth=4,minleaf=8"].FracBelow10 >= byLabel["depth=22,minleaf=1"].FracBelow10 {
		t.Errorf("shallow tree (%v) not worse than deep (%v)",
			byLabel["depth=4,minleaf=8"].FracBelow10, byLabel["depth=22,minleaf=1"].FracBelow10)
	}
	if _, err := GridSearchBDT(data, nil, []int{1}, cfg); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestGridSearchKNN(t *testing.T) {
	data := samples(t, "Emmy")
	cfg := EvalConfig{Reps: 2, Seed: 9}
	grid, err := GridSearchKNN(data, []int{1, 5, 25}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 3 {
		t.Fatalf("grid points = %d", len(grid))
	}
	// A huge k blurs distinct configurations together: worse than small k.
	byLabel := map[string]EvalResult{}
	for _, g := range grid {
		byLabel[g.Label] = g.Result
	}
	if byLabel["k=25"].FracBelow10 >= byLabel["k=1"].FracBelow10 {
		t.Errorf("k=25 (%v) not worse than k=1 (%v)",
			byLabel["k=25"].FracBelow10, byLabel["k=1"].FracBelow10)
	}
	// The grid draws its splits once; they are the ones Evaluate draws.
	alone, err := Evaluate(data, func() Model { return NewKNN(DefaultKNNParams()) }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k := DefaultKNNParams().K; k != 5 || !reflect.DeepEqual(byLabel["k=5"], alone) {
		t.Errorf("grid point k=5 differs from Evaluate on its own (default k = %d)", k)
	}
	if _, err := GridSearchKNN(data, nil, cfg); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestErrorByUserVolume(t *testing.T) {
	data := samples(t, "Emmy")
	cfg := EvalConfig{Reps: 3, Seed: 10}
	buckets, err := ErrorByUserVolume(data, func() Model { return NewBDT(DefaultTreeParams()) }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 4 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	totalUsers := 0
	for i, b := range buckets {
		if b.Quartile != i+1 {
			t.Errorf("quartile order: %+v", b)
		}
		if b.Users <= 0 || b.MeanErrPct < 0 {
			t.Errorf("degenerate bucket: %+v", b)
		}
		totalUsers += b.Users
		// Buckets ordered by activity: max jobs non-decreasing.
		if i > 0 && b.MinJobs < buckets[i-1].MinJobs {
			t.Errorf("bucket %d overlaps previous: %+v", i, b)
		}
	}
	if totalUsers < 30 {
		t.Errorf("users covered = %d", totalUsers)
	}
	// The heavy quartile has the best coverage, hence the lowest error.
	if !(buckets[3].MedianErrPct <= buckets[0].MedianErrPct) {
		t.Errorf("heavy users (%.1f%%) should predict no worse than light (%.1f%%)",
			buckets[3].MedianErrPct, buckets[0].MedianErrPct)
	}
	if _, err := ErrorByUserVolume(nil, func() Model { return NewBDT(DefaultTreeParams()) }, cfg); err == nil {
		t.Error("empty samples accepted")
	}
}
