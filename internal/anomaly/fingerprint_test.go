package anomaly

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestFingerprintBasics(t *testing.T) {
	var f Fingerprint
	ws := []float64{100, 110, 90, 105, 95}
	for i, w := range ws {
		f.Update(1000+int64(i)*60, w)
	}
	if f.N != int64(len(ws)) {
		t.Fatalf("N = %d, want %d", f.N, len(ws))
	}
	if f.Min != 90 || f.Max != 110 {
		t.Fatalf("min/max = %v/%v, want 90/110", f.Min, f.Max)
	}
	if f.First != 1000 || f.Last != 1000+4*60 {
		t.Fatalf("first/last = %d/%d", f.First, f.Last)
	}
	wantMean := (100.0 + 110 + 90 + 105 + 95) / 5
	if f.Mean() != wantMean {
		t.Fatalf("mean = %v, want %v", f.Mean(), wantMean)
	}
	if !f.Valid() {
		t.Fatal("fingerprint of a real series must be Valid")
	}
	var total int64
	for _, c := range f.Shape {
		total += c
	}
	if total != f.N {
		t.Fatalf("shape histogram holds %d samples, want %d", total, f.N)
	}
}

// TestFingerprintUpdateAllocFree pins the hot-path budget: folding a
// sample into a fingerprint allocates nothing (it runs inside the tsdb
// job-shard lock on every ingested sample).
func TestFingerprintUpdateAllocFree(t *testing.T) {
	var f Fingerprint
	f.Update(1000, 100)
	unix := int64(1060)
	w := 101.0
	allocs := testing.AllocsPerRun(1000, func() {
		f.Update(unix, w)
		unix += 60
		w += 0.5
		if w > 300 {
			w = 100
		}
	})
	if allocs != 0 {
		t.Fatalf("Fingerprint.Update allocates %v times per call, want 0", allocs)
	}
}

// TestFingerprintSerializeContinues pins the state-riding contract: a
// fingerprint serialized mid-stream, decoded, and fed the remaining
// samples ends bit-identical to one that saw the whole stream.
func TestFingerprintSerializeContinues(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	series := make([]float64, 400)
	for i := range series {
		series[i] = 150 + 40*math.Sin(float64(i)/20) + 10*rng.NormFloat64()
		if series[i] < 1 {
			series[i] = 1
		}
	}
	var whole Fingerprint
	for i, w := range series {
		whole.Update(int64(1000+i*60), w)
	}

	var first Fingerprint
	for i, w := range series[:137] {
		first.Update(int64(1000+i*60), w)
	}
	blob, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	var restored Fingerprint
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}
	if !restored.Valid() {
		t.Fatal("decoded fingerprint is not Valid")
	}
	for i := 137; i < len(series); i++ {
		restored.Update(int64(1000+i*60), series[i])
	}
	if restored != whole {
		t.Fatalf("restored fingerprint diverged:\n got %+v\nwant %+v", restored, whole)
	}
}

func TestFingerprintValidRejectsCorruption(t *testing.T) {
	mk := func() Fingerprint {
		var f Fingerprint
		for i := 0; i < 30; i++ {
			f.Update(int64(1000+i*60), 100+float64(i%7))
		}
		return f
	}
	cases := []struct {
		name string
		mut  func(*Fingerprint)
	}{
		{"nan sum", func(f *Fingerprint) { f.Sum = math.NaN() }},
		{"inf ewma", func(f *Fingerprint) { f.EWFast = math.Inf(1) }},
		{"-inf sum", func(f *Fingerprint) { f.Sum = math.Inf(-1) }},
		{"negative N", func(f *Fingerprint) { f.N = -1 }},
		{"min above max", func(f *Fingerprint) { f.Min = f.Max + 1 }},
		{"negative variance", func(f *Fingerprint) { f.EWVar = -0.5 }},
		{"first after last", func(f *Fingerprint) { f.First = f.Last + 1 }},
		{"negative shape count", func(f *Fingerprint) { f.Shape[3] = -2 }},
		{"nonzero fields at N=0", func(f *Fingerprint) { f.N = 0 }},
	}
	for _, tc := range cases {
		f := mk()
		tc.mut(&f)
		if f.Valid() {
			t.Errorf("%s: corrupted fingerprint passed Valid", tc.name)
		}
	}
	var zero Fingerprint
	if !zero.Valid() {
		t.Error("zero fingerprint must be Valid (pre-detection snapshots)")
	}
	huge := mk()
	for _, w := range []float64{1e300, 0, 5} {
		huge.Update(huge.Last+60, w)
	}
	if !math.IsInf(huge.SumSq, 1) || !math.IsInf(huge.EWVar, 1) || !huge.Valid() {
		t.Errorf("after a reading of 1e300 W: SumSq %v, EWVar %v, Valid %v; want +Inf, +Inf and valid", huge.SumSq, huge.EWVar, huge.Valid())
	}
}

// TestFingerprintPhasesOnStep: a clean step change is detected as phase
// shifts, and a flat stream after the step re-arms (no runaway firing).
func TestFingerprintPhasesOnStep(t *testing.T) {
	var f Fingerprint
	unix := int64(1000)
	for i := 0; i < 60; i++ {
		f.Update(unix, 100)
		unix += 60
	}
	if f.Phases != 0 {
		t.Fatalf("flat stream produced %d phase shifts, want 0", f.Phases)
	}
	for i := 0; i < 60; i++ {
		f.Update(unix, 200)
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
		f.Update(unix, 200)
		unix += 60
	}
	if f.Phases != phasesAfterStep {
		t.Fatalf("flat stream after adoption kept firing phase shifts: %d -> %d",
			phasesAfterStep, f.Phases)
	}
}
