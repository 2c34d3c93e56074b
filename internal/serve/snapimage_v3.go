package serve

import (
	"math"
	"math/bits"

	"hpcpower/internal/stats"
	"hpcpower/internal/tsdb"
)

// Version 3 of the snapshot image, the version before this build's, had
// the layout of version 4 but for its shards' and jobs' state: Welford
// accumulators (n, mean, m2, min, max, sum) where version 4 has exact
// moments, open minutes of extremes and counts only, no fold frontier,
// and a fingerprint that had folded every sample:
//
//	job:         id, acc, table?, nodes, first_unix, last_unix,
//	             minutes (minute, min, max, n), spread acc, fingerprint
//	fingerprint: n, sum, sum_sq, min, max, first_unix, last_unix, last_w,
//	             then the fields of an anomaly.Trend
//
// A version-3 image reads into version 4's state: the moments from the
// accumulators (momentsV3), within rounding of what version 3 served; the
// trend from the fingerprint; and every minute up to the job's newest as
// folded, since the fingerprint has seen their samples — so of an open
// minute only its count and extremes, its spread, are ever read, and it
// reads as its count of readings at its least. This file goes
// when a build writes the version after 4.

const (
	minAccBytesV3    = 1 + 5*8
	minMinuteBytesV3 = 2 + 2*8
	minJobBytesV3    = 1 + 2*minAccBytesV3 + 5 + minFPBytesV3
	minFPBytesV3     = 1 + 4*8 + 2 + 7*8 + 4 + 8 + 8
)

// accV3 is a version-3 Welford accumulator.
type accV3 struct {
	n                       int64
	mean, m2, min, max, sum float64
}

func (c *metaCodec) readAccV3(a *accV3) {
	integer(c, &a.n)
	for _, v := range [...]*float64{&a.mean, &a.m2, &a.min, &a.max, &a.sum} {
		c.float(v)
	}
}

func (c *metaCodec) accV3(m *stats.Moments) {
	var a accV3
	c.readAccV3(&a)
	*m = momentsV3(a)
}

func (c *metaCodec) jobV3(j *tsdb.JobStateExport) {
	c.uint(&j.ID)
	c.accV3(&j.Moments)
	optional(c, &j.Table, (*metaCodec).table)
	slice(c, &j.Nodes, 1, integer[int])
	integer(c, &j.FirstUnix)
	integer(c, &j.LastUnix)
	slice(c, &j.Minutes, minMinuteBytesV3, func(c *metaCodec, m *tsdb.MinuteState) {
		a := accV3{}
		integer(c, &m.Minute)
		c.float(&a.min)
		c.float(&a.max)
		integer(c, &a.n)
		a.mean = a.min
		m.Moments = momentsV3(a)
	})
	c.accV3(&j.Spread)
	var n, first, last int64
	var skip float64
	integer(c, &n)
	for range 4 { // sum, sum_sq, min, max
		c.float(&skip)
	}
	integer(c, &first)
	integer(c, &last)
	c.float(&skip) // last_w
	c.trend(&j.Trend)
	j.Folded = j.LastUnix / 60
}

// momentsV3 is a Welford accumulator as Moments: its count of readings at
// its mean (held to its extremes), and their squares plus its variance,
// so the mean and variance come back within rounding of what it served.
// An accumulator no readings give stays invalid.
func momentsV3(a accV3) stats.Moments {
	m := stats.Moments{N: a.n, Min: a.min, Max: a.max}
	const scale = 10 << 32
	lo, hi := a.min*scale, a.max*scale
	switch {
	case a.n <= 0 || !(lo <= hi):
		return m
	case !(lo >= 0 && hi < 1<<63):
		m.Over = true
		return m
	}
	mean := a.mean * scale
	if !(mean >= lo) {
		mean = lo
	}
	p, n := uint64(math.Round(min(mean, hi))), uint64(a.n)
	m.Sum[0], m.Sum[1] = bits.Mul64(p, n)
	// t = p² + the variance in codes², below (hi − lo)² < 2¹²⁶.
	v := a.m2 / float64(a.n) * scale * scale
	if !(v >= 0) {
		v = 0
	}
	v = min(v, (hi-lo)*(hi-lo))
	vHi := math.Floor(math.Ldexp(v, -64))
	var t [2]uint64
	var c uint64
	t[0], t[1] = bits.Mul64(p, p)
	t[1], c = bits.Add64(t[1], uint64(v-math.Ldexp(vHi, 64)), 0)
	t[0] += uint64(vHi) + c
	h1, l1 := bits.Mul64(t[1], n)
	h0, l0 := bits.Mul64(t[0], n)
	m.SumSq[2] = l1
	m.SumSq[1], c = bits.Add64(h1, l0, 0)
	m.SumSq[0] = h0 + c
	return m
}
