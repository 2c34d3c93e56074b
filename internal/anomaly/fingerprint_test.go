package anomaly

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// observe is one sample of a job that reports one reading a minute from
// one node, as a lookup sees the job: its count, sum, peak and last time
// move with the sample, and its trend folds the reading — the minute's
// mean.
func observe(f *Fingerprint, unix int64, w float64) {
	if f.N == 0 || w > f.Max {
		f.Max = w
	}
	f.N++
	f.Sum += w
	f.Last = max(f.Last, unix)
	f.Trend.Update(unix, w, 0)
}

func TestFingerprintBasics(t *testing.T) {
	var f Fingerprint
	ws := []float64{100, 110, 90, 105, 95}
	for i, w := range ws {
		observe(&f, 1000+int64(i)*60, w)
	}
	wantMean := (100.0 + 110 + 90 + 105 + 95) / 5
	if f.Mean() != wantMean || f.OvershootPct() != 100*(110-wantMean)/wantMean {
		t.Fatalf("mean = %v, overshoot %v; want %v and %v", f.Mean(), f.OvershootPct(), wantMean, 100*(110-wantMean)/wantMean)
	}
	if !f.Trend.Valid() {
		t.Fatal("the trend of a real series must be Valid")
	}
	if got := f.folds(); got != f.N {
		t.Fatalf("shape histogram holds %d values, want %d", got, f.N)
	}
	if f.EWFast == 0 || f.EWSlow == 0 || f.FastPeak < f.EWFast {
		t.Fatalf("trend did not track the series: %+v", f.Trend)
	}
}

// TestFingerprintUpdateAllocFree pins the hot-path budget: folding a
// value into a trend allocates nothing (it runs inside the tsdb
// job-shard lock).
func TestFingerprintUpdateAllocFree(t *testing.T) {
	var f Trend
	f.Update(1000, 100, 0)
	unix := int64(1060)
	w := 101.0
	allocs := testing.AllocsPerRun(1000, func() {
		f.Update(unix, w, 0)
		unix += 60
		w += 0.5
		if w > 300 {
			w = 100
		}
	})
	if allocs != 0 {
		t.Fatalf("Trend.Update allocates %v times per call, want 0", allocs)
	}
}

// TestFingerprintSerializeContinues pins the state-riding contract: a
// trend serialized mid-stream, decoded, and fed the remaining values
// ends bit-identical to one that saw the whole stream.
func TestFingerprintSerializeContinues(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	series := make([]float64, 400)
	for i := range series {
		series[i] = 150 + 40*math.Sin(float64(i)/20) + 10*rng.NormFloat64()
		if series[i] < 1 {
			series[i] = 1
		}
	}
	var whole Trend
	for i, w := range series {
		whole.Update(int64(1000+i*60), w, 0)
	}

	var first Trend
	for i, w := range series[:137] {
		first.Update(int64(1000+i*60), w, 0)
	}
	blob, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	var restored Trend
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}
	if !restored.Valid() {
		t.Fatal("decoded trend is not Valid")
	}
	for i := 137; i < len(series); i++ {
		restored.Update(int64(1000+i*60), series[i], 0)
	}
	if restored != whole {
		t.Fatalf("restored trend diverged:\n got %+v\nwant %+v", restored, whole)
	}
}

func TestFingerprintValidRejectsCorruption(t *testing.T) {
	mk := func() Trend {
		var f Trend
		for i := 0; i < 30; i++ {
			f.Update(int64(1000+i*60), 100+float64(i%7), 0)
		}
		return f
	}
	cases := []struct {
		name string
		mut  func(*Trend)
	}{
		{"nan baseline", func(f *Trend) { f.EWSlow = math.NaN() }},
		{"inf ewma", func(f *Trend) { f.EWFast = math.Inf(1) }},
		{"-inf peak", func(f *Trend) { f.FastPeak = math.Inf(-1) }},
		{"nan variance", func(f *Trend) { f.EWVar = math.NaN() }},
		{"negative variance", func(f *Trend) { f.EWVar = -0.5 }},
		{"negative shape count", func(f *Trend) { f.Shape[3] = -2 }},
		{"nonzero fields with nothing folded", func(f *Trend) { f.Shape = [ShapeBuckets]int64{} }},
	}
	for _, tc := range cases {
		f := mk()
		tc.mut(&f)
		if f.Valid() {
			t.Errorf("%s: corrupted trend passed Valid", tc.name)
		}
	}
	var zero Trend
	if !zero.Valid() {
		t.Error("the zero trend must be Valid (a job with no closed minute)")
	}
	huge := mk()
	for i, w := range []float64{1e300, 0, 5} {
		huge.Update(int64(4000+60*i), w, 0)
	}
	if !math.IsInf(huge.EWVar, 1) || !huge.Valid() {
		t.Errorf("after a reading of 1e300 W: EWVar %v, Valid %v; want +Inf and valid", huge.EWVar, huge.Valid())
	}
}

// TestFingerprintPhasesOnStep: a clean step change is detected as phase
// shifts, and a flat stream after the step re-arms (no runaway firing).
func TestFingerprintPhasesOnStep(t *testing.T) {
	var f Trend
	unix := int64(1000)
	for i := 0; i < 60; i++ {
		f.Update(unix, 100, 0)
		unix += 60
	}
	if f.Phases != 0 {
		t.Fatalf("flat stream produced %d phase shifts, want 0", f.Phases)
	}
	for i := 0; i < 60; i++ {
		f.Update(unix, 200, 0)
		unix += 60
	}
	if f.Phases == 0 {
		t.Fatal("a 2x step produced no phase shift")
	}
	if math.Abs(f.EWSlow-200) > 5 {
		t.Fatalf("baseline did not adopt the new level: EWSlow = %v", f.EWSlow)
	}
	phasesAfterStep := f.Phases
	for i := 0; i < 120; i++ {
		f.Update(unix, 200, 0)
		unix += 60
	}
	if f.Phases != phasesAfterStep {
		t.Fatalf("flat stream after adoption kept firing phase shifts: %d -> %d",
			phasesAfterStep, f.Phases)
	}
}
