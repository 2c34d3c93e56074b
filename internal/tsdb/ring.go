package tsdb

import (
	"math"

	"hpcpower/internal/stats"
)

// Point is one retained sample of a node's series.
type Point struct {
	Unix   int64   `json:"t"`
	PowerW float64 `json:"w"`
}

// ring is a circular buffer of at most limit Points. Appends overwrite
// the oldest entry once full — per-node retention is bounded so the store
// holds the recent window (what live dashboards and cap controllers
// need), not the unbounded history (that is the offline dataset's job).
// buf starts empty and doubles, up to limit, each time an append finds it
// full, so a ring costs what it holds; it wraps only at its full length.
type ring struct {
	buf   []Point
	limit int // the retention: len(buf) once grown
	head  int // index of the next write
	count int // number of valid entries, ≤ len(buf)
	// sinceLate counts appends, the last late arrival (a point older than
	// the one before it) being the first. The late point's predecessor is
	// sinceLate points back, so once sinceLate ≥ count the pair is no
	// longer both retained: see ordered.
	sinceLate int
	// last is the newest point's timestamp, kept here so that an append
	// compares against it without a load from the buffer.
	last int64
	// job is the newest point's job, 0 before the first point Append
	// gives the ring: Append's memo of which job's node set holds the
	// node already.
	job uint64
}

// minRingAlloc is the length of a ring's first buffer: a new node's
// first hour at one sample a minute, 1 KB. Each doubling is an
// allocation and a copy, and a crash replay pays them all for every node.
const minRingAlloc = 64

func newRing(limit int) *ring {
	return &ring{limit: limit}
}

// ringOf is the ring a stream of appends ending in pts (oldest first)
// leaves behind. A slice of at most limit points becomes its buffer;
// a longer one is cut to its newest limit points, copied. sinceLate is
// lateIndex's count over pts, or 0 to have it taken here.
func ringOf(pts []Point, limit, sinceLate int) *ring {
	if sinceLate == 0 {
		sinceLate = len(pts) - lateIndex(pts)
	}
	if len(pts) > limit {
		pts = append([]Point(nil), pts[len(pts)-limit:]...)
	}
	// Full, so the next append grows the buffer or, at limit, wraps.
	r := &ring{buf: pts[:len(pts):len(pts)], limit: limit, count: len(pts), sinceLate: sinceLate}
	if len(pts) > 0 {
		r.last = pts[len(pts)-1].Unix
	}
	return r
}

// lateIndex is the index of the last point of pts that is older than
// the one before it, 0 if pts is in time order.
func lateIndex(pts []Point) int {
	for i := len(pts) - 1; i > 0; i-- {
		if pts[i].Unix < pts[i-1].Unix {
			return i
		}
	}
	return 0
}

// append adds p and, when the ring was full, reports the timestamp of
// the point it overwrote. The slot it writes is the one buffer line it
// touches.
func (r *ring) append(p Point) (evicted int64, full bool) {
	if r.count == len(r.buf) && len(r.buf) < r.limit {
		r.grow()
	}
	// In an empty ring last is no point's; whatever the compare says,
	// sinceLate ≥ count = 1 after this append.
	if p.Unix < r.last {
		r.sinceLate = 0
	}
	r.sinceLate++
	r.last = p.Unix
	if full = r.count == len(r.buf); full {
		evicted = r.buf[r.head].Unix
	} else {
		r.count++
	}
	r.buf[r.head] = p
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	return evicted, full
}

// grow moves a full ring that has not reached its limit into a buffer
// twice as long (at most limit). It has never wrapped, so its points lie
// in order from buf[0]. append copies them into the new buffer without
// zeroing their slots first, as make and copy would: a crash replay grows
// every ring several times, and that zeroing cost it 4 %.
func (r *ring) grow() {
	n := min(max(2*len(r.buf), minRingAlloc), r.limit)
	r.head = len(r.buf)
	r.buf = append(r.buf[:r.head:r.head], make([]Point, n-r.head)...)
}

// ordered reports whether the retained points are in time order (equal
// timestamps allowed): no late arrival is retained together with the
// point it arrived after.
func (r *ring) ordered() bool { return r.sinceLate >= r.count }

// segments returns the retained points in insertion order as the two
// contiguous runs of buf that hold them (the second is empty until the
// ring has wrapped) — so a reader walks them in place, with no copy, no
// modulo and no call per point.
func (r *ring) segments() (older, newer []Point) {
	if start := r.head - r.count; start >= 0 {
		return r.buf[start:r.head], nil
	}
	return r.buf[len(r.buf)+r.head-r.count:], r.buf[:r.head]
}

// window calls yield with the retained points with from ≤ Unix ≤ hi, in
// insertion order, as runs of buf. An ordered ring has at most two, one
// a segment, found by binary search; a ring holding a late arrival is
// filtered point by point and yields each maximal run.
func (r *ring) window(from, hi int64, yield func(run []Point)) {
	older, newer := r.segments()
	if r.ordered() {
		for _, seg := range [2][]Point{older, newer} {
			if run := timeRange(seg, from, hi); len(run) > 0 {
				yield(run)
			}
		}
		return
	}
	for _, seg := range [2][]Point{older, newer} {
		start := -1 // of the run being extended
		for i, p := range seg {
			switch in := p.Unix >= from && p.Unix <= hi; {
			case in && start < 0:
				start = i
			case !in && start >= 0:
				yield(seg[start:i])
				start = -1
			}
		}
		if start >= 0 {
			yield(seg[start:])
		}
	}
}

// timeRange is the part of a time-ordered seg with from ≤ Unix ≤ hi. The
// ends are tried first: a window that covers seg, or misses it, costs
// two loads and not two searches through memory nobody has touched
// since it was written.
func timeRange(seg []Point, from, hi int64) []Point {
	if len(seg) == 0 || seg[0].Unix > hi || seg[len(seg)-1].Unix < from {
		return nil
	}
	if seg[len(seg)-1].Unix > hi {
		if seg = seg[:firstAfter(seg, hi)]; seg[len(seg)-1].Unix < from {
			return nil
		}
	}
	if seg[0].Unix < from {
		seg = seg[firstAfter(seg, from-1):]
	}
	return seg
}

// firstAfter is the index of the first point of a time-ordered seg with
// Unix > t, where seg[0].Unix ≤ t < seg[len(seg)-1].Unix. It guesses by
// interpolating between the ends — on a series of evenly spaced samples,
// the spot — and gallops out from the guess to bracket the answer, then
// halves the bracket: a few loads near the guess where a binary search
// makes eleven across the ring, and O(log n) however skewed the series.
func firstAfter(seg []Point, t int64) int {
	last := len(seg) - 1
	frac := (float64(t) - float64(seg[0].Unix)) / (float64(seg[last].Unix) - float64(seg[0].Unix))
	g := min(max(int(frac*float64(last)), 0), last)
	// Invariant: seg[a].Unix ≤ t < seg[b].Unix.
	a, b := 0, last
	if seg[g].Unix <= t {
		a = g
		for step := 1; a+step < last; step *= 2 {
			if seg[a+step].Unix > t {
				b = a + step
				break
			}
			a += step
		}
	} else {
		b = g
		for step := 1; b-step > 0; step *= 2 {
			if seg[b-step].Unix <= t {
				a = b - step
				break
			}
			b -= step
		}
	}
	for b-a > 1 {
		if m := int(uint(a+b) >> 1); seg[m].Unix > t {
			b = m
		} else {
			a = m
		}
	}
	return b
}

// appendWindow appends to dst the retained points with from ≤ Unix ≤ hi,
// preserving insertion order.
func (r *ring) appendWindow(dst []Point, from, hi int64) []Point {
	r.window(from, hi, func(run []Point) { dst = append(dst, run...) })
	return dst
}

// appendValues is appendWindow keeping only the power readings.
func (r *ring) appendValues(dst []float64, from, hi int64) []float64 {
	r.window(from, hi, func(run []Point) {
		for _, p := range run {
			dst = append(dst, p.PowerW)
		}
	})
	return dst
}

// tallyValues is appendValues into a tally, and reports false where
// the tally gave up. Each run goes to AddAll a buffer of values at a
// time.
func (r *ring) tallyValues(t *stats.Tally, from, hi int64) bool {
	ok := true
	var buf [128]float64
	r.window(from, hi, func(run []Point) {
		for ok && len(run) > 0 {
			vals := buf[:min(len(run), len(buf))]
			for i := range vals {
				vals[i] = run[i].PowerW
			}
			ok = t.AddAll(vals)
			run = run[len(vals):]
		}
	})
	return ok
}

// countWindow is the number of points appendWindow would append.
func (r *ring) countWindow(from, hi int64) int {
	n := 0
	r.window(from, hi, func(run []Point) { n += len(run) })
	return n
}

// upper turns the API's "to ≤ 0 means unbounded above" into a bound.
func upper(to int64) int64 {
	if to <= 0 {
		return math.MaxInt64
	}
	return to
}
