package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMinutes(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{30 * time.Second, 1},
		{time.Minute, 1},
		{90 * time.Second, 1},
		{2 * time.Minute, 2},
		{time.Hour, 60},
	}
	for _, tt := range tests {
		if got := Minutes(tt.d); got != tt.want {
			t.Errorf("Minutes(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestNodeHoursOf(t *testing.T) {
	if got := NodeHoursOf(4, 90*time.Minute); math.Abs(float64(got)-6) > 1e-9 {
		t.Errorf("NodeHoursOf(4, 90m) = %v, want 6", got)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp mid = %v", got)
	}
}

func TestClampProperties(t *testing.T) {
	f := func(v, a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeGrid(t *testing.T) {
	start := time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)
	g := NewTimeGrid(start, 10)
	if g.At(0) != start {
		t.Errorf("At(0) = %v", g.At(0))
	}
	if got := g.At(3); got != start.Add(3*time.Minute) {
		t.Errorf("At(3) = %v", got)
	}
	if got := g.End(); got != start.Add(10*time.Minute) {
		t.Errorf("End = %v", got)
	}
}

func TestGridOver(t *testing.T) {
	start := time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)
	g := GridOver(start, start.Add(2*time.Hour))
	if g.N != 120 {
		t.Errorf("GridOver N = %d, want 120", g.N)
	}
	// Reversed arguments are swapped, not an error.
	g2 := GridOver(start.Add(time.Hour), start)
	if g2.N != 60 || !g2.Start.Equal(start) {
		t.Errorf("GridOver reversed = %+v", g2)
	}
}

func TestStrings(t *testing.T) {
	if got := Watts(149).String(); got != "149.0 W" {
		t.Errorf("Watts.String = %q", got)
	}
	cases := []struct {
		j    Joules
		want string
	}{
		{100, "100.0 J"},
		{7200, "2.00 Wh"},
		{7.2e6, "2.00 kWh"},
		{7.2e9, "2.00 MWh"},
	}
	for _, c := range cases {
		if got := c.j.String(); got != c.want {
			t.Errorf("Joules(%v).String = %q, want %q", float64(c.j), got, c.want)
		}
	}
	if got := NodeHours(12.34).String(); got != "12.3 node-h" {
		t.Errorf("NodeHours.String = %q", got)
	}
}
