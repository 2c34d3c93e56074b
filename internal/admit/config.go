package admit

import (
	"fmt"
	"time"

	"hpcpower/internal/spec"
)

// Config parameterizes the whole admission layer. The zero value means
// "defaults": limiter and CoDel on with conservative sizing, per-agent
// rate limiting and the memory watermark off.
type Config struct {
	// Target is the CoDel sojourn-time target for the ingest queue: once
	// the head entry has waited longer than this for a full Interval, the
	// queue starts shedding oldest-first. 0 means 100ms; negative
	// disables queue shedding (the hard capacity bound still applies).
	Target time.Duration
	// Interval is the CoDel control interval. 0 means 1s.
	Interval time.Duration

	// MinInflight is the AIMD limiter's floor. 0 means 16.
	MinInflight int
	// MaxInflight is the limiter's ceiling and its optimistic starting
	// point. 0 means 1024; negative disables the limiter entirely.
	MaxInflight int
	// LatencyRatio is the overload threshold: a control window whose mean
	// ack latency exceeds LatencyRatio × the moving baseline shrinks the
	// limit. 0 means 1.5.
	LatencyRatio float64
	// Backoff is the multiplicative-decrease factor applied to the limit
	// on an overloaded window. 0 means 0.8 (in (0,1)).
	Backoff float64
	// Step is the control-loop cadence: the limiter re-evaluates its
	// limit and the memory monitor re-checks the watermark this often.
	// 0 means 100ms.
	Step time.Duration

	// AgentRate is the per-agent token-bucket refill rate in batches/s.
	// 0 disables per-agent rate limiting.
	AgentRate float64
	// AgentBurst is the bucket depth in batches. 0 means 2×AgentRate
	// (minimum 8).
	AgentBurst int

	// QuerySlots bounds concurrent query-class requests. 0 means 64.
	QuerySlots int
	// AdminSlots bounds concurrent admin-class requests. 0 means 4.
	AdminSlots int

	// MemWatermark is the accounted-memory level (head rings + ingest
	// queue + dedup windows, in bytes) that flips the node into
	// memory-pressure degraded mode: ingest sheds 429 over_capacity,
	// queries shed, and a block flush is forced. 0 disables.
	MemWatermark int64
	// MemResume is the hysteresis level that clears degraded mode.
	// 0 means 80% of MemWatermark.
	MemResume int64
}

// WithDefaults returns cfg with every zero field replaced by its
// documented default.
func (c Config) WithDefaults() Config {
	if c.Target == 0 {
		c.Target = 100 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.MinInflight <= 0 {
		c.MinInflight = 16
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 1024
	}
	if c.MaxInflight > 0 && c.MaxInflight < c.MinInflight {
		c.MaxInflight = c.MinInflight
	}
	if c.LatencyRatio <= 0 {
		c.LatencyRatio = 1.5
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		c.Backoff = 0.8
	}
	if c.Step <= 0 {
		c.Step = 100 * time.Millisecond
	}
	if c.AgentBurst <= 0 {
		c.AgentBurst = int(2 * c.AgentRate)
		if c.AgentBurst < 8 {
			c.AgentBurst = 8
		}
	}
	if c.QuerySlots <= 0 {
		c.QuerySlots = 64
	}
	if c.AdminSlots <= 0 {
		c.AdminSlots = 4
	}
	if c.MemResume <= 0 || c.MemResume >= c.MemWatermark {
		c.MemResume = c.MemWatermark * 8 / 10
	}
	return c
}

// Spec is the -admit grammar bound to c: one row per key, in the order
// String renders. Zero fields are left out, so the empty spec is the
// zero Config (defaults).
func (c *Config) Spec() spec.Set {
	return spec.Set{
		spec.Duration("target", &c.Target, "CoDel sojourn target of the ingest queue (0 = 100ms, negative = no queue shedding)"),
		spec.Duration("interval", &c.Interval, "CoDel control interval (0 = 1s)").Min(0),
		spec.Int("min-inflight", &c.MinInflight, "AIMD limiter floor (0 = 16)").Min(0),
		spec.Int("max-inflight", &c.MaxInflight, "AIMD limiter ceiling and starting point (0 = 1024, negative = no limiter)"),
		spec.Float("latency-ratio", &c.LatencyRatio, "shrink the limit when window latency exceeds this x baseline (0 = 1.5)").Min(0),
		spec.Float("backoff", &c.Backoff, "multiplicative decrease on an overloaded window, in (0,1) (0 = 0.8)").Min(0),
		spec.Duration("step", &c.Step, "limiter and memory-monitor cadence (0 = 100ms)").Min(0),
		spec.Float("agent-rate", &c.AgentRate, "per-agent token refill in batches/s (0 = no per-agent limit)").Min(0),
		spec.Int("agent-burst", &c.AgentBurst, "per-agent bucket depth in batches (0 = 2 x agent-rate, at least 8)").Min(0),
		spec.Int("query-slots", &c.QuerySlots, "concurrent query-class requests (0 = 64)").Min(0),
		spec.Int("admin-slots", &c.AdminSlots, "concurrent admin-class requests (0 = 4)").Min(0),
		spec.Bytes("mem-watermark", &c.MemWatermark, "accounted memory that trips degraded mode (0 = off)"),
		spec.Bytes("mem-resume", &c.MemResume, "accounted memory that clears degraded mode (0 = 80% of mem-watermark)"),
	}
}

// ParseConfig parses a comma-separated key=value admission spec, e.g.
//
//	target=50ms,interval=500ms,min-inflight=8,agent-rate=100,mem-watermark=256MiB
//
// Unknown keys are an error so typos in smoke scripts fail loudly, and
// ParseConfig(c.String()) round-trips for every c it accepts.
func ParseConfig(s string) (Config, error) {
	var cfg Config
	if err := cfg.Spec().Parse(s); err != nil {
		return Config{}, fmt.Errorf("admit: spec: %w", err)
	}
	return cfg, nil
}

// String is the exact inverse of ParseConfig: ParseConfig(c.String()) == c.
func (c Config) String() string { return c.Spec().String() }
