package stats

import (
	"encoding/json"
	"math"
	"testing"

	"hpcpower/internal/rng"
)

// TestAccumStateRoundTrip: state → restore → continue must be
// bit-identical to never having serialized, including through JSON (the
// snapshot wire format).
func TestAccumStateRoundTrip(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		var control, half Accumulator
		n := int(src.Uint64()%200) + 1
		cut := int(src.Uint64() % uint64(n))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 50 + 400*src.Float64()
		}
		for _, x := range xs {
			control.Add(x)
		}
		for _, x := range xs[:cut] {
			half.Add(x)
		}
		buf, err := json.Marshal(half.State())
		if err != nil {
			t.Fatal(err)
		}
		var st AccumState
		if err := json.Unmarshal(buf, &st); err != nil {
			t.Fatal(err)
		}
		restored := AccumFromState(st)
		for _, x := range xs[cut:] {
			restored.Add(x)
		}
		if restored != control {
			t.Fatalf("trial %d: restored %+v != control %+v", trial, restored, control)
		}
	}
}

// TestP2StateRoundTrip covers both the small-sample phase (n < 5, exact
// quantile from buffered observations) and the marker phase.
func TestP2StateRoundTrip(t *testing.T) {
	src := rng.New(13)
	for trial := 0; trial < 20; trial++ {
		n := int(src.Uint64()%300) + 1
		cut := int(src.Uint64() % uint64(n))
		control, _ := NewP2Quantile(0.95)
		half, _ := NewP2Quantile(0.95)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 100 * src.Float64()
		}
		for _, x := range xs {
			control.Add(x)
		}
		for _, x := range xs[:cut] {
			half.Add(x)
		}
		buf, err := json.Marshal(half.State())
		if err != nil {
			t.Fatal(err)
		}
		var st P2State
		if err := json.Unmarshal(buf, &st); err != nil {
			t.Fatal(err)
		}
		restored, err := P2FromState(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs[cut:] {
			restored.Add(x)
		}
		cv, rv := control.Value(), restored.Value()
		if control.n != restored.n ||
			(cv != rv && !(math.IsNaN(cv) && math.IsNaN(rv))) {
			t.Fatalf("trial %d (n=%d cut=%d): restored value %v (n=%d) != control %v (n=%d)",
				trial, n, cut, rv, restored.n, cv, control.n)
		}
	}
}

func TestP2FromStateValidation(t *testing.T) {
	if _, err := P2FromState(P2State{P: 1.5}); err == nil {
		t.Fatal("out-of-range quantile accepted")
	}
	if _, err := P2FromState(P2State{P: 0.5, N: 3, Initial: []float64{1}}); err == nil {
		t.Fatal("inconsistent initial buffer accepted")
	}
	q, err := P2FromState(P2State{P: 0.5})
	if err != nil || q.n != 0 {
		t.Fatalf("empty state: %v", err)
	}
}
