package rapl

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)

func TestCounterAccumulates(t *testing.T) {
	c := NewCounter(PKG)
	if err := c.Add(100, time.Second); err != nil {
		t.Fatal(err)
	}
	// Visible register: 100 J / (2^-16 J) ticks.
	want := uint32(100 * 65536)
	if got := c.Read(); got != want {
		t.Errorf("Read = %d, want %d", got, want)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	c := NewCounter(PKG)
	if err := c.Add(-1, time.Second); err == nil {
		t.Error("negative power accepted")
	}
	if err := c.Add(1, -time.Second); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestCounterQuantizationConservesEnergy(t *testing.T) {
	// Many tiny additions must not lose sub-tick energy.
	c := NewCounter(DRAM)
	const steps = 100000
	for i := 0; i < steps; i++ {
		// 1 µW for 1 s = 1e-6 J, far below one 15.3 µJ tick.
		if err := c.Add(1e-6, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// 0.1 J in all: 6553 whole ticks, none of which a single addition reaches.
	if got, want := c.Read(), uint32(6553); got != want {
		t.Errorf("Read = %d ticks, want %d", got, want)
	}
}

func TestCounterWraps(t *testing.T) {
	c := NewCounter(PKG)
	// The register wraps at 2^32 ticks = 65536 J: add 70000 J.
	if err := c.Add(70000, time.Second); err != nil {
		t.Fatal(err)
	}
	wrapJ := float64(uint64(1)<<32) / 65536
	wantTicks := uint64(70000*65536) % (uint64(1) << 32)
	if got := c.Read(); got != uint32(wantTicks) {
		t.Errorf("Read = %d, want %d (wrap at %.0f J)", got, wantTicks, wrapJ)
	}
}

func TestSamplerRecoversPower(t *testing.T) {
	c := NewCounter(PKG)
	s := NewSampler()
	if _, ok, err := s.Observe(Reading{At: t0, Value: c.Read()}); ok || err != nil {
		t.Fatalf("first observation: ok=%v err=%v", ok, err)
	}
	// 150 W for one minute.
	if err := c.Add(150, time.Minute); err != nil {
		t.Fatal(err)
	}
	p, ok, err := s.Observe(Reading{At: t0.Add(time.Minute), Value: c.Read()})
	if err != nil || !ok {
		t.Fatalf("observe: ok=%v err=%v", ok, err)
	}
	if math.Abs(p-150) > 0.001 {
		t.Errorf("recovered power = %v, want 150", p)
	}
}

func TestSamplerHandlesSingleWrap(t *testing.T) {
	c := NewCounter(PKG)
	s := NewSampler()
	// Pre-charge the counter close to the wrap point: 65000 J of 65536.
	if err := c.Add(65000, time.Second); err != nil {
		t.Fatal(err)
	}
	s.Observe(Reading{At: t0, Value: c.Read()})
	// 200 W for 10 minutes = 120 kJ -> wraps once... that's >65536 J,
	// which would double-wrap; use 1 minute: 12 kJ, crossing the wrap.
	if err := c.Add(200, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	// 200*600 = 120000 J added: 65000+120000 = 185000 -> nearly 2 wraps.
	// Observe per minute like the production sampler instead.
	c2 := NewCounter(PKG)
	s2 := NewSampler()
	c2.Add(65400, time.Second) // 136 J below the 65536 J wrap
	s2.Observe(Reading{At: t0, Value: c2.Read()})
	c2.Add(200, time.Minute) // 12 kJ: crosses the wrap once
	p, ok, err := s2.Observe(Reading{At: t0.Add(time.Minute), Value: c2.Read()})
	if err != nil || !ok {
		t.Fatalf("observe: %v %v", ok, err)
	}
	if math.Abs(p-200) > 0.01 {
		t.Errorf("power across wrap = %v, want 200", p)
	}
}

func TestSamplerRejectsNonMonotonicTime(t *testing.T) {
	s := NewSampler()
	s.Observe(Reading{At: t0, Value: 0})
	if _, _, err := s.Observe(Reading{At: t0, Value: 1}); err == nil {
		t.Error("same-time sample accepted")
	}
	if _, _, err := s.Observe(Reading{At: t0.Add(-time.Second), Value: 1}); err == nil {
		t.Error("backwards sample accepted")
	}
}

func TestSamplingRoundTripProperty(t *testing.T) {
	// For any power within TDP and the study's one-minute interval, the
	// sampler recovers the true power to within quantization error.
	f := func(raw uint16) bool {
		power := 10 + float64(raw%220) // 10..229 W
		c := NewCounter(PKG)
		s := NewSampler()
		s.Observe(Reading{At: t0, Value: c.Read()})
		at := t0
		for i := 0; i < 5; i++ {
			c.Add(power, time.Minute)
			at = at.Add(time.Minute)
			p, ok, err := s.Observe(Reading{At: at, Value: c.Read()})
			if err != nil || !ok {
				return false
			}
			if math.Abs(p-power) > 0.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNodeMeter(t *testing.T) {
	m := NewNodeMeter()
	if _, ok, err := m.Sample(t0); ok || err != nil {
		t.Fatalf("first sample: %v %v", ok, err)
	}
	// 150 W total, 20% DRAM, for one minute.
	if err := m.Accumulate(150, 0.2, time.Minute); err != nil {
		t.Fatal(err)
	}
	p, ok, err := m.Sample(t0.Add(time.Minute))
	if err != nil || !ok {
		t.Fatalf("sample: %v %v", ok, err)
	}
	if math.Abs(p-150) > 0.001 {
		t.Errorf("node power = %v, want 150", p)
	}
	if err := m.Accumulate(150, 1.5, time.Minute); err == nil {
		t.Error("bad dram fraction accepted")
	}
}
