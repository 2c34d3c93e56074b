package admit

import (
	"reflect"
	"testing"
	"time"
)

func TestParseConfig(t *testing.T) {
	cases := []struct {
		spec string
		want Config
	}{
		{"", Config{}},
		{"target=50ms", Config{Target: 50 * time.Millisecond}},
		{"target=-1ns", Config{Target: -time.Nanosecond}},
		{"max-inflight=-1", Config{MaxInflight: -1}},
		{
			"target=50ms,interval=500ms,min-inflight=8,max-inflight=128,latency-ratio=2,backoff=0.5,step=20ms",
			Config{Target: 50 * time.Millisecond, Interval: 500 * time.Millisecond,
				MinInflight: 8, MaxInflight: 128, LatencyRatio: 2, Backoff: 0.5, Step: 20 * time.Millisecond},
		},
		{"agent-rate=100,agent-burst=16", Config{AgentRate: 100, AgentBurst: 16}},
		{"query-slots=32,admin-slots=2", Config{QuerySlots: 32, AdminSlots: 2}},
		{"mem-watermark=256MiB,mem-resume=200M", Config{MemWatermark: 256 << 20, MemResume: 200 << 20}},
		{"mem-watermark=1048576", Config{MemWatermark: 1 << 20}},
		{"mem-watermark=4k", Config{MemWatermark: 4096}},
		{" target=1s , interval=2s ", Config{Target: time.Second, Interval: 2 * time.Second}},
	}
	for _, tc := range cases {
		got, err := ParseConfig(tc.spec)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseConfig(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseConfigRejects(t *testing.T) {
	for _, spec := range []string{
		"bogus=1",              // unknown key
		"target",               // missing '='
		"target=xyz",           // bad duration
		"interval=-1s",         // negative where forbidden
		"min-inflight=-2",      // negative int
		"latency-ratio=NaN",    // non-finite
		"backoff=+Inf",         // non-finite
		"agent-rate=-1",        // negative float
		"mem-watermark=-5",     // negative bytes
		"mem-watermark=NaNMiB", // non-finite bytes
		"mem-watermark=oops",   // unparseable bytes
		"mem-watermark=1e300G", // overflow
	} {
		if _, err := ParseConfig(spec); err == nil {
			t.Fatalf("ParseConfig(%q): expected error", spec)
		}
	}
}

func TestConfigStringRoundTrip(t *testing.T) {
	cases := []Config{
		{},
		{Target: -time.Nanosecond, MaxInflight: -1},
		{Target: 50 * time.Millisecond, Interval: time.Second, MinInflight: 8, MaxInflight: 256,
			LatencyRatio: 1.75, Backoff: 0.85, Step: 25 * time.Millisecond,
			AgentRate: 12.5, AgentBurst: 40, QuerySlots: 16, AdminSlots: 2,
			MemWatermark: 256 << 20, MemResume: 200 << 20},
	}
	for _, c := range cases {
		got, err := ParseConfig(c.String())
		if err != nil {
			t.Fatalf("round trip of %+v (%q): %v", c, c.String(), err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip of %q = %+v, want %+v", c.String(), got, c)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	d := Config{}.WithDefaults()
	if d.Target != 100*time.Millisecond || d.Interval != time.Second ||
		d.MinInflight != 16 || d.MaxInflight != 1024 ||
		d.LatencyRatio != 1.5 || d.Backoff != 0.8 || d.Step != 100*time.Millisecond ||
		d.QuerySlots != 64 || d.AdminSlots != 4 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	if d.MemWatermark != 0 {
		t.Fatalf("watermark must default to disabled, got %d", d.MemWatermark)
	}
	// MemResume defaults to 80% of the watermark.
	w := Config{MemWatermark: 1000}.WithDefaults()
	if w.MemResume != 800 {
		t.Fatalf("MemResume = %d, want 800", w.MemResume)
	}
	// Max below min is clamped up.
	c := Config{MinInflight: 64, MaxInflight: 8}.WithDefaults()
	if c.MaxInflight != 64 {
		t.Fatalf("MaxInflight = %d, want clamped to 64", c.MaxInflight)
	}
}
