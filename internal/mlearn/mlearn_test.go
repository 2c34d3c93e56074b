package mlearn

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"hpcpower/internal/gen"
	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
)

var (
	emmySamples   []Sample
	meggieSamples []Sample
)

func samples(t testing.TB, system string) []Sample {
	t.Helper()
	switch system {
	case "Emmy":
		if emmySamples == nil {
			ds, err := gen.Generate(gen.EmmyConfig(0.05, 42))
			if err != nil {
				t.Fatal(err)
			}
			emmySamples = SamplesFromDataset(ds)
		}
		return emmySamples
	default:
		if meggieSamples == nil {
			ds, err := gen.Generate(gen.MeggieConfig(0.05, 42))
			if err != nil {
				t.Fatal(err)
			}
			meggieSamples = SamplesFromDataset(ds)
		}
		return meggieSamples
	}
}

// synthetic builds a small, perfectly learnable dataset: each (user,
// nodes, wall) combination has a fixed power.
func synthetic(n int, noise float64, seed uint64) []Sample {
	src := rng.New(seed)
	users := []string{"u1", "u2", "u3", "u4"}
	nodesOpts := []int{1, 2, 4, 8}
	wallOpts := []float64{2, 6, 24}
	var out []Sample
	for i := 0; i < n; i++ {
		u := users[src.Intn(len(users))]
		nd := nodesOpts[src.Intn(len(nodesOpts))]
		w := wallOpts[src.Intn(len(wallOpts))]
		// Deterministic power per combination.
		power := 80 + 20*float64(len(u)%3) + 10*math.Log2(float64(nd)) + 5*math.Log2(w) +
			30*float64(u[1]-'0')
		power *= 1 + noise*src.Norm()
		out = append(out, Sample{
			Features: Features{User: u, Nodes: nd, WallHours: w},
			PowerW:   power,
		})
	}
	return out
}

func TestSamplesFromDataset(t *testing.T) {
	ds := &trace.Dataset{}
	ds.Jobs = append(ds.Jobs, trace.Job{User: "u1", Nodes: 4, AvgPowerPerNode: 150})
	s := SamplesFromDataset(ds)
	if len(s) != 1 || s[0].User != "u1" || s[0].PowerW != 150 {
		t.Errorf("samples = %+v", s)
	}
}

func TestStratifiedSplit(t *testing.T) {
	data := synthetic(500, 0, 1)
	sp := StratifiedSplit(data, 0.2, rng.New(2))
	if len(sp.Train)+len(sp.Valid) != len(data) {
		t.Fatalf("split loses samples: %d + %d != %d", len(sp.Train), len(sp.Valid), len(data))
	}
	frac := float64(len(sp.Valid)) / float64(len(data))
	if frac < 0.1 || frac > 0.3 {
		t.Errorf("validation fraction = %v", frac)
	}
	// Paper constraint: every validation user appears in training.
	trainUsers := map[string]bool{}
	for _, s := range sp.Train {
		trainUsers[s.User] = true
	}
	for _, s := range sp.Valid {
		if !trainUsers[s.User] {
			t.Fatalf("validation user %s missing from training", s.User)
		}
	}
}

func TestStratifiedSplitSingletonUsers(t *testing.T) {
	data := []Sample{
		{Features: Features{User: "solo", Nodes: 1, WallHours: 1}, PowerW: 100},
	}
	for i := 0; i < 30; i++ {
		data = append(data, Sample{
			Features: Features{User: "busy", Nodes: 2, WallHours: 2}, PowerW: 120,
		})
	}
	sp := StratifiedSplit(data, 0.2, rng.New(3))
	for _, s := range sp.Valid {
		if s.User == "solo" {
			t.Error("singleton user leaked into validation")
		}
	}
}

func TestBDTLearnsDeterministicData(t *testing.T) {
	data := synthetic(800, 0, 4)
	m := NewBDT(DefaultTreeParams())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	// On noise-free repetitive data the tree should be near-perfect.
	for _, s := range data[:100] {
		pred := m.Predict(s.Features)
		if math.Abs(pred-s.PowerW)/s.PowerW > 0.01 {
			t.Fatalf("BDT off by %.1f%% on %+v", 100*math.Abs(pred-s.PowerW)/s.PowerW, s.Features)
		}
	}
	if m.Depth() == 0 || m.Leaves() < 4 {
		t.Errorf("degenerate tree: depth=%d leaves=%d", m.Depth(), m.Leaves())
	}
}

func TestBDTPredictionWithinRange(t *testing.T) {
	data := samples(t, "Emmy")
	m := NewBDT(DefaultTreeParams())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range data {
		lo = math.Min(lo, s.PowerW)
		hi = math.Max(hi, s.PowerW)
	}
	for _, s := range data[:200] {
		p := m.Predict(s.Features)
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Fatalf("prediction %v outside training range [%v, %v]", p, lo, hi)
		}
	}
	// Unseen user: still returns something sane.
	p := m.Predict(Features{User: "nobody", Nodes: 4, WallHours: 6})
	if p < lo || p > hi {
		t.Errorf("unseen-user prediction %v out of range", p)
	}
}

func TestKNNExactRecall(t *testing.T) {
	// With k=1 and an exact repeated configuration, KNN must return it.
	data := []Sample{}
	for i := 0; i < 10; i++ {
		data = append(data, Sample{Features: Features{User: "a", Nodes: 4, WallHours: 8}, PowerW: 140})
		data = append(data, Sample{Features: Features{User: "a", Nodes: 16, WallHours: 2}, PowerW: 180})
	}
	m := NewKNN(KNNParams{K: 1, UserMismatchPenalty: 4})
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(Features{User: "a", Nodes: 4, WallHours: 8}); got != 140 {
		t.Errorf("KNN exact = %v", got)
	}
	if got := m.Predict(Features{User: "a", Nodes: 16, WallHours: 2}); got != 180 {
		t.Errorf("KNN exact = %v", got)
	}
}

func TestKNNUnseenUserFallsBack(t *testing.T) {
	data := synthetic(300, 0.02, 5)
	m := NewKNN(DefaultKNNParams())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	p := m.Predict(Features{User: "stranger", Nodes: 4, WallHours: 6})
	if p <= 0 || math.IsNaN(p) {
		t.Errorf("unseen-user prediction = %v", p)
	}
}

// TestKNNTiesByTrainingOrder: among equidistant neighbours the earlier
// training rows are the ones averaged, and a history shorter than K is
// topped up from the penalised global set in the same order.
func TestKNNTiesByTrainingOrder(t *testing.T) {
	var data []Sample
	for i := 0; i < 30; i++ {
		data = append(data, Sample{Features: Features{User: "a", Nodes: 4, WallHours: 8}, PowerW: 100 + float64(i)})
	}
	for i := 0; i < 3; i++ {
		data = append(data, Sample{Features: Features{User: "b", Nodes: 4, WallHours: 8}, PowerW: 200 + float64(i)})
	}
	m := NewKNN(DefaultKNNParams())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	// All 30 of a's rows are at distance 0: rows 0..4 win.
	if got, want := m.Predict(Features{User: "a", Nodes: 4, WallHours: 8}), (100+101+102+103+104)/5.0; got != want {
		t.Errorf("tied prediction = %v, want the mean of the first five rows %v", got, want)
	}
	// b has 3 rows (distance 0); the other two come from the whole set
	// at distance 0 + penalty, which a's rows 0 and 1 head.
	if got, want := m.Predict(Features{User: "b", Nodes: 4, WallHours: 8}), (200+201+202+100+101)/5.0; got != want {
		t.Errorf("short-history prediction = %v, want %v", got, want)
	}
}

// TestKNNSelectionMatchesSorting pins Predict's answers on 40 seeded
// fits, ties abounding in every fourth, by the SHA-256 of their bits.
// The hash was taken while the sort-everything KNN this package shipped
// before selection (gather every candidate, stable sort, average the
// first K) was the reference Predict was checked against; re-pin only
// for a change that means to alter a prediction. It was taken on amd64,
// as TestBDTFitPinned's was.
func TestKNNSelectionMatchesSorting(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hash pinned on amd64, this is %s", runtime.GOARCH)
	}
	src := rng.New(21)
	users := []string{"u1", "u2", "u3", "u4", "u5", "u6"}
	askers := append([]string{"stranger"}, users...)
	h := sha256.New()
	for trial := 0; trial < 40; trial++ {
		// Continuous walltimes: every distance is distinct. Every fourth
		// trial draws from three walltimes instead, so ties abound.
		wall := func() float64 { return 0.5 + 47*src.Float64() }
		if trial%4 == 3 {
			wall = func() float64 { return []float64{2, 6, 24}[src.Intn(3)] }
		}
		n := 1 + src.Intn(200)
		data := make([]Sample, n)
		for i := range data {
			// u6 is rare: its history is usually shorter than K.
			u := users[src.Intn(5)]
			if src.Intn(40) == 0 {
				u = users[5]
			}
			data[i] = Sample{Features: Features{User: u, Nodes: 1 + src.Intn(64), WallHours: wall()}, PowerW: 60 + 200*src.Float64()}
		}
		m := NewKNN(KNNParams{K: []int{1, 5, 25, 40}[trial%4], UserMismatchPenalty: 4})
		if err := m.Fit(data); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			f := Features{User: askers[src.Intn(len(askers))], Nodes: 1 + src.Intn(64), WallHours: wall()}
			binary.Write(h, binary.LittleEndian, math.Float64bits(m.Predict(f)))
		}
	}
	const want = "8a5708d92d554a0c275135191492187e109118a548266bbdaf3acdbd4607cc85"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("the predictions hash to %s, want %s", got, want)
	}
}

func TestKNNPredictDoesNotAllocate(t *testing.T) {
	data := samples(t, "Emmy")
	m := NewKNN(DefaultKNNParams())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		m.Predict(data[i%len(data)].Features)
		i++
	})
	if allocs != 0 {
		t.Errorf("KNN.Predict allocates %v times per call", allocs)
	}
	// An unseen user takes the widening pass over the whole set.
	if allocs := testing.AllocsPerRun(20, func() { m.Predict(Features{User: "stranger", Nodes: 4, WallHours: 6}) }); allocs != 0 {
		t.Errorf("KNN.Predict allocates %v times per call for an unseen user", allocs)
	}
}

func TestFLDAFitPredict(t *testing.T) {
	data := synthetic(600, 0.02, 6)
	m := NewFLDA(DefaultFLDAParams())
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, s := range data[:100] {
		p := m.Predict(s.Features)
		if p <= 0 {
			t.Fatalf("prediction %v", p)
		}
		e := math.Abs(p-s.PowerW) / s.PowerW
		if e > worst {
			worst = e
		}
	}
	// Class-mean prediction: errors bounded by class width, far from exact
	// but must be broadly right on easy data.
	if worst > 0.5 {
		t.Errorf("FLDA worst training error = %.0f%%", 100*worst)
	}
}

func TestFitErrors(t *testing.T) {
	if err := NewBDT(DefaultTreeParams()).Fit(nil); err == nil {
		t.Error("BDT empty fit accepted")
	}
	if err := NewKNN(DefaultKNNParams()).Fit(nil); err == nil {
		t.Error("KNN empty fit accepted")
	}
	if err := NewFLDA(DefaultFLDAParams()).Fit(synthetic(5, 0, 7)); err == nil {
		t.Error("FLDA tiny fit accepted")
	}
}

func TestInvert3(t *testing.T) {
	m := [3][3]float64{{2, 0, 0}, {0, 4, 0}, {0, 0, 8}}
	inv, ok := invert3(m)
	if !ok {
		t.Fatal("diagonal matrix reported singular")
	}
	want := [3]float64{0.5, 0.25, 0.125}
	for i := 0; i < 3; i++ {
		if math.Abs(inv[i][i]-want[i]) > 1e-12 {
			t.Errorf("inv[%d][%d] = %v", i, i, inv[i][i])
		}
	}
	// Singular matrix.
	if _, ok := invert3([3][3]float64{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}}); ok {
		t.Error("singular matrix inverted")
	}
	// Random matrix round-trip: M × M⁻¹ ≈ I.
	src := rng.New(8)
	r := [3][3]float64{}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			r[a][b] = src.Norm()
		}
		r[a][a] += 3
	}
	ri, ok := invert3(r)
	if !ok {
		t.Fatal("well-conditioned matrix singular")
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			var v float64
			for k := 0; k < 3; k++ {
				v += r[a][k] * ri[k][b]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(v-want) > 1e-9 {
				t.Errorf("round-trip [%d][%d] = %v", a, b, v)
			}
		}
	}
}

func TestEvaluateOnSynthetic(t *testing.T) {
	data := synthetic(1000, 0.01, 9)
	res, err := Evaluate(data, func() Model { return NewBDT(DefaultTreeParams()) }, DefaultEvalConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "BDT" || res.Reps != 10 {
		t.Errorf("meta = %+v", res)
	}
	if res.FracBelow10 < 95 {
		t.Errorf("BDT on easy data: %.1f%% below 10%% error", res.FracBelow10)
	}
	if res.N < 1000 {
		t.Errorf("pooled predictions = %d", res.N)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(nil, func() Model { return NewBDT(DefaultTreeParams()) }, DefaultEvalConfig(1)); err == nil {
		t.Error("empty sample set accepted")
	}
}

// TestFig14Ordering is the core Fig. 14 reproduction: BDT best, ~90% of
// predictions below 10% error; FLDA the weakest on Emmy.
func TestFig14Ordering(t *testing.T) {
	results, err := EvaluateAll(samples(t, "Emmy"), DefaultEvalConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]EvalResult{}
	for _, r := range results {
		byName[r.Model] = r
		t.Logf("%s: mean=%.1f%% median=%.1f%% <5%%=%.0f%% <10%%=%.0f%%",
			r.Model, r.MeanErrPct, r.MedianErrPct, r.FracBelow5Pct, r.FracBelow10)
	}
	bdt, knn, flda := byName["BDT"], byName["KNN"], byName["FLDA"]
	if bdt.FracBelow10 < 80 {
		t.Errorf("BDT <10%% error fraction = %.1f%%, paper ~90%%", bdt.FracBelow10)
	}
	if bdt.FracBelow5Pct < 60 {
		t.Errorf("BDT <5%% error fraction = %.1f%%, paper ~75%%", bdt.FracBelow5Pct)
	}
	if !(bdt.FracBelow10 >= knn.FracBelow10) {
		t.Errorf("BDT (%v) should beat KNN (%v)", bdt.FracBelow10, knn.FracBelow10)
	}
	if !(knn.FracBelow10 >= flda.FracBelow10) {
		t.Errorf("KNN (%v) should beat FLDA (%v)", knn.FracBelow10, flda.FracBelow10)
	}
	if flda.FracBelow10 > bdt.FracBelow10-5 {
		t.Errorf("FLDA (%v) suspiciously close to BDT (%v) on Emmy", flda.FracBelow10, bdt.FracBelow10)
	}
}

// TestFig15PerUserQuality: with BDT, prediction quality holds across
// users, not only the heaviest. At this unit-test scale (~1/20 of the
// study) Zipf-tail users have only a handful of jobs, so their cells are
// under-covered and the <5% fraction sits well below the paper's ~90%;
// it climbs with scale (see EXPERIMENTS.md for the full-scale run).
func TestFig15PerUserQuality(t *testing.T) {
	bdt, err := Evaluate(samples(t, "Emmy"), func() Model { return NewBDT(DefaultTreeParams()) }, DefaultEvalConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if bdt.FracUsersBelow5 < 28 {
		t.Errorf("users with <5%% mean error = %.1f%%, want >= 28%% at test scale", bdt.FracUsersBelow5)
	}
	flda, err := Evaluate(samples(t, "Emmy"), func() Model { return NewFLDA(DefaultFLDAParams()) }, DefaultEvalConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if !(bdt.FracUsersBelow5 > flda.FracUsersBelow5) {
		t.Errorf("BDT per-user quality (%.1f%%) should beat FLDA (%.1f%%)",
			bdt.FracUsersBelow5, flda.FracUsersBelow5)
	}
}

func TestFig14Meggie(t *testing.T) {
	results, err := EvaluateAll(samples(t, "Meggie"), DefaultEvalConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]EvalResult{}
	for _, r := range results {
		byName[r.Model] = r
	}
	if byName["BDT"].FracBelow10 < 75 {
		t.Errorf("Meggie BDT <10%% = %.1f%%", byName["BDT"].FracBelow10)
	}
	if !(byName["BDT"].FracBelow10 >= byName["FLDA"].FracBelow10) {
		t.Errorf("BDT should beat FLDA on Meggie too")
	}
}

func TestPredictionAbsErrPct(t *testing.T) {
	p := Prediction{Actual: 100, Predicted: 90}
	if got := p.AbsErrPct(); got != 10 {
		t.Errorf("AbsErrPct = %v", got)
	}
	p = Prediction{Actual: 0, Predicted: 90}
	if !math.IsNaN(p.AbsErrPct()) {
		t.Error("zero actual should be NaN")
	}
}

func BenchmarkBDTFit(b *testing.B) {
	data := synthetic(5000, 0.02, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewBDT(DefaultTreeParams())
		if err := m.Fit(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBDTPredict(b *testing.B) {
	data := synthetic(5000, 0.02, 12)
	m := NewBDT(DefaultTreeParams())
	if err := m.Fit(data); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(data[i%len(data)].Features)
	}
}

var emmyBenchSamples []Sample

// benchSamples is Emmy at a tenth of the study, the scale the end-to-end
// benchmark's analyze-offline workload runs at; generated once, since the
// testing package calls a benchmark several times to settle b.N.
func benchSamples(b testing.TB) []Sample {
	if emmyBenchSamples == nil {
		ds, err := gen.Generate(gen.EmmyConfig(0.1, 42))
		if err != nil {
			b.Fatal(err)
		}
		emmyBenchSamples = SamplesFromDataset(ds)
	}
	return emmyBenchSamples
}

func BenchmarkKNNPredict(b *testing.B) {
	data := benchSamples(b)
	m := NewKNN(DefaultKNNParams())
	if err := m.Fit(data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(data[i%len(data)].Features)
	}
}

// BenchmarkEvaluateAll is the whole Fig. 14 study; run it with -cpu 1,2
// to see what the second core buys.
func BenchmarkEvaluateAll(b *testing.B) {
	data := benchSamples(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateAll(data, DefaultEvalConfig(7)); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleEvaluate() {
	data := synthetic(400, 0.01, 13)
	res, err := Evaluate(data, func() Model { return NewBDT(DefaultTreeParams()) }, EvalConfig{Reps: 3, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Model, res.Reps)
	// Output: BDT 3
}
