// Package rapl emulates Intel's Running Average Power Limit energy
// counters — the measurement mechanism behind the study's telemetry
// (§2.2: "The systems' RAPL counters are measured for the PKG (CPU
// socket) and DRAM (memory) domains").
//
// Real RAPL exposes cumulative energy in fixed-point units (typically
// 15.3 µJ) through 32-bit MSRs that wrap around every few minutes at
// full load; monitoring agents sample the counters periodically and
// difference consecutive readings (handling wrap) to obtain average
// power. This package provides both halves:
//
//   - Counter: a per-domain cumulative energy counter with authentic
//     unit quantization and 32-bit wraparound;
//   - Sampler: the monitoring-agent side that turns two readings into
//     average watts, detecting at most one wrap between samples.
//
// The telemetry synthesizer drives Counters with ground-truth power and
// the dataset stores what the Sampler recovers, so the released traces
// inherit RAPL's quantization exactly like the production data did.
package rapl

import (
	"fmt"
	"time"
)

// Domain is a RAPL measurement domain.
type Domain string

// The domains the study records (§2.2).
const (
	PKG  Domain = "pkg"  // CPU socket
	DRAM Domain = "dram" // memory
)

// EnergyUnitJ is the energy resolution of one counter tick. Intel's
// default ESU on the studied generations is 2⁻¹⁶ J ≈ 15.3 µJ.
const EnergyUnitJ = 1.0 / 65536

// counterBits is the register width; the counter wraps at 2³² ticks
// (~18 hours at 100 W with the default unit — but DRAM units and higher
// draws wrap much sooner on real parts; the math is identical).
const counterBits = 32

const counterModulus = uint64(1) << counterBits

// Counter is one cumulative RAPL energy counter.
type Counter struct {
	domain Domain
	// ticks is the full-resolution accumulated energy in units; the
	// visible register is ticks modulo 2³².
	ticks uint64
	// fracJ carries sub-tick energy between Add calls so quantization
	// does not leak energy.
	fracJ float64
}

// NewCounter returns a zeroed counter for the domain.
func NewCounter(d Domain) *Counter { return &Counter{domain: d} }

// Add accumulates powerW drawn for duration d.
func (c *Counter) Add(powerW float64, d time.Duration) error {
	if powerW < 0 {
		return fmt.Errorf("rapl: negative power %v", powerW)
	}
	if d < 0 {
		return fmt.Errorf("rapl: negative duration %v", d)
	}
	joules := powerW*d.Seconds() + c.fracJ
	ticks := uint64(joules / EnergyUnitJ)
	c.fracJ = joules - float64(ticks)*EnergyUnitJ
	c.ticks += ticks
	return nil
}

// Read returns the visible 32-bit register value (wrapped ticks).
func (c *Counter) Read() uint32 { return uint32(c.ticks % counterModulus) }

// Reading is one sampled counter value with its timestamp.
type Reading struct {
	At    time.Time
	Value uint32
}

// Sampler converts consecutive counter readings into average power,
// handling at most one wraparound between samples — the invariant the
// production one-minute sampling interval guarantees (§2.2).
type Sampler struct {
	last    Reading
	started bool
}

// NewSampler returns a sampler with no history.
func NewSampler() *Sampler { return &Sampler{} }

// Observe ingests a reading and returns the average power since the
// previous one. The first call returns ok=false (no interval yet).
func (s *Sampler) Observe(r Reading) (powerW float64, ok bool, err error) {
	if s.started && !r.At.After(s.last.At) {
		return 0, false, fmt.Errorf("rapl: non-monotonic sample time %v after %v", r.At, s.last.At)
	}
	if !s.started {
		s.last = r
		s.started = true
		return 0, false, nil
	}
	dt := r.At.Sub(s.last.At).Seconds()
	// Unsigned subtraction handles a single wrap implicitly.
	deltaTicks := uint32(r.Value - s.last.Value)
	joules := float64(deltaTicks) * EnergyUnitJ
	s.last = r
	return joules / dt, true, nil
}

// NodeMeter bundles the PKG and DRAM counters of one node and reports
// their sum — the study's node-level power metric (CPU + DRAM).
type NodeMeter struct {
	pkg, dram       *Counter
	pkgSam, dramSam *Sampler
}

// NewNodeMeter returns a meter with zeroed counters.
func NewNodeMeter() *NodeMeter {
	return &NodeMeter{
		pkg: NewCounter(PKG), dram: NewCounter(DRAM),
		pkgSam: NewSampler(), dramSam: NewSampler(),
	}
}

// Accumulate adds one interval of ground-truth power, split between the
// domains by dramFrac (the share of node power drawn by memory).
func (m *NodeMeter) Accumulate(totalW, dramFrac float64, d time.Duration) error {
	if dramFrac < 0 || dramFrac > 1 {
		return fmt.Errorf("rapl: dram fraction %v out of [0,1]", dramFrac)
	}
	if err := m.pkg.Add(totalW*(1-dramFrac), d); err != nil {
		return err
	}
	return m.dram.Add(totalW*dramFrac, d)
}

// Sample reads both counters at instant t and returns the node power
// (PKG+DRAM) averaged since the previous sample.
func (m *NodeMeter) Sample(t time.Time) (totalW float64, ok bool, err error) {
	pw, okP, err := m.pkgSam.Observe(Reading{At: t, Value: m.pkg.Read()})
	if err != nil {
		return 0, false, err
	}
	dw, okD, err := m.dramSam.Observe(Reading{At: t, Value: m.dram.Read()})
	if err != nil {
		return 0, false, err
	}
	return pw + dw, okP && okD, nil
}
