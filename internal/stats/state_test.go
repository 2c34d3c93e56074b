package stats

import (
	"encoding/json"
	"testing"

	"hpcpower/internal/rng"
)

// TestAccumStateRoundTrip: a moment accumulator's fields are its state —
// through JSON (the shape the snapshot's JSON form takes) and on, it must
// be bit-identical to never having been serialized.
func TestAccumStateRoundTrip(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		var control, half Moments
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
		buf, err := json.Marshal(half)
		if err != nil {
			t.Fatal(err)
		}
		var restored Moments
		if err := json.Unmarshal(buf, &restored); err != nil {
			t.Fatal(err)
		}
		for _, x := range xs[cut:] {
			restored.Add(x)
		}
		if restored != control {
			t.Fatalf("trial %d: restored %+v != control %+v", trial, restored, control)
		}
	}
}
