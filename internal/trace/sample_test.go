package trace

import (
	"math"
	"testing"
)

func TestPowerSampleValidate(t *testing.T) {
	ok := PowerSample{Node: 3, JobID: 7, Unix: 1600000000, PowerW: 151.2}
	with := func(f func(*PowerSample)) PowerSample { s := ok; f(&s); return s }
	for _, c := range []struct {
		name   string
		sample PowerSample
		valid  bool
	}{
		{"typical", ok, true},
		{"idle node, zero watts", with(func(s *PowerSample) { s.JobID, s.PowerW = 0, 0 }), true},
		{"subnormal watts", with(func(s *PowerSample) { s.PowerW = math.SmallestNonzeroFloat64 }), true},
		{"largest finite watts", with(func(s *PowerSample) { s.PowerW = math.MaxFloat64 }), true},
		{"negative node", with(func(s *PowerSample) { s.Node = -1 }), false},
		{"zero time", with(func(s *PowerSample) { s.Unix = 0 }), false},
		{"negative watts", with(func(s *PowerSample) { s.PowerW = -0.1 }), false},
		{"-Inf watts", with(func(s *PowerSample) { s.PowerW = math.Inf(-1) }), false},
		// The two a plain `< 0` lets through: strconv.ParseFloat accepts
		// both spellings from a replayed CSV.
		{"NaN watts", with(func(s *PowerSample) { s.PowerW = math.NaN() }), false},
		{"+Inf watts", with(func(s *PowerSample) { s.PowerW = math.Inf(1) }), false},
	} {
		if err := c.sample.Validate(); (err == nil) != c.valid {
			t.Errorf("%s: Validate() = %v, want valid=%v", c.name, err, c.valid)
		}
	}
}
