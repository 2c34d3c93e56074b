// Package units provides the physical quantities used throughout hpcpower:
// power (watts), energy (joules and watt-hours), node-hours, and the
// one-minute sampling grid the paper's telemetry is collected on.
//
// The paper samples RAPL counters once per minute and reports averaged (not
// instantaneous) values; all time-resolved series in this repository live on
// that minute grid.
package units

import (
	"fmt"
	"time"
)

// Watts is electrical power in watts.
type Watts float64

// Joules is energy in joules (watt-seconds).
type Joules float64

// NodeHours measures allocated compute capacity: one node for one hour.
type NodeHours float64

// SampleInterval is the telemetry sampling interval used by the monitored
// systems (one averaged sample per minute, §2.2 of the paper).
const SampleInterval = time.Minute

// SecondsPerSample is SampleInterval expressed in seconds.
const SecondsPerSample = 60.0

// String renders power with a watt suffix, e.g. "149.0 W".
func (w Watts) String() string { return fmt.Sprintf("%.1f W", float64(w)) }

// String renders energy in the most convenient scale.
func (j Joules) String() string {
	switch {
	case j >= 3.6e9:
		return fmt.Sprintf("%.2f MWh", float64(j)/3.6e9)
	case j >= 3.6e6:
		return fmt.Sprintf("%.2f kWh", float64(j)/3.6e6)
	case j >= 3600:
		return fmt.Sprintf("%.2f Wh", float64(j)/3600)
	default:
		return fmt.Sprintf("%.1f J", float64(j))
	}
}

// String renders node-hours, e.g. "1234.5 node-h".
func (nh NodeHours) String() string { return fmt.Sprintf("%.1f node-h", float64(nh)) }

// Minutes converts a duration to a whole number of samples, rounding down.
// Durations shorter than one minute count as one sample: every job that ran
// produces at least one telemetry sample on the monitored systems.
func Minutes(d time.Duration) int {
	m := int(d / SampleInterval)
	if m < 1 {
		return 1
	}
	return m
}

// NodeHoursOf returns the node-hours consumed by n nodes over duration d.
func NodeHoursOf(n int, d time.Duration) NodeHours {
	return NodeHours(float64(n) * d.Hours())
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TimeGrid describes a contiguous minute-resolution time axis.
type TimeGrid struct {
	Start time.Time // first sample instant
	N     int       // number of samples
}

// NewTimeGrid builds a grid of n one-minute samples starting at start.
func NewTimeGrid(start time.Time, n int) TimeGrid { return TimeGrid{Start: start, N: n} }

// GridOver builds the grid covering [start, end) at one-minute resolution.
func GridOver(start, end time.Time) TimeGrid {
	if end.Before(start) {
		start, end = end, start
	}
	return TimeGrid{Start: start, N: Minutes(end.Sub(start))}
}

// At returns the time of sample i.
func (g TimeGrid) At(i int) time.Time { return g.Start.Add(time.Duration(i) * SampleInterval) }

// End returns the instant just past the final sample.
func (g TimeGrid) End() time.Time { return g.At(g.N) }
