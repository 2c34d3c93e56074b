package stats

import (
	"encoding/json"
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
