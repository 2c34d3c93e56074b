package tsdb

import "math"

// Point is one retained sample of a node's series.
type Point struct {
	Unix   int64   `json:"t"`
	PowerW float64 `json:"w"`
}

// ring is a fixed-capacity circular buffer of Points. Appends overwrite
// the oldest entry once full — per-node retention is bounded so the store
// holds the recent window (what live dashboards and cap controllers
// need), not the unbounded history (that is the offline dataset's job).
type ring struct {
	buf   []Point
	head  int // index of the next write
	count int // number of valid entries, ≤ len(buf)
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]Point, capacity)}
}

// ringOf is the ring a stream of appends ending in pts (oldest first)
// leaves behind. A slice that already has the ring's capacity becomes
// its buffer; any other is copied, keeping the newest capacity points.
func ringOf(pts []Point, capacity int) *ring {
	if cap(pts) == capacity {
		return &ring{buf: pts[:capacity], head: len(pts) % capacity, count: len(pts)}
	}
	r := newRing(capacity)
	r.count = copy(r.buf, pts[max(0, len(pts)-capacity):])
	r.head = r.count % capacity
	return r
}

func (r *ring) append(p Point) {
	r.buf[r.head] = p
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	if r.count < len(r.buf) {
		r.count++
	}
}

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

// scan calls fn over the retained points in insertion order.
func (r *ring) scan(fn func(Point)) {
	older, newer := r.segments()
	for _, p := range older {
		fn(p)
	}
	for _, p := range newer {
		fn(p)
	}
}

// appendWindow appends to dst the retained points with from ≤ Unix ≤ hi,
// preserving insertion order.
func (r *ring) appendWindow(dst []Point, from, hi int64) []Point {
	older, newer := r.segments()
	for _, seg := range [2][]Point{older, newer} {
		for _, p := range seg {
			if p.Unix >= from && p.Unix <= hi {
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// appendValues is appendWindow keeping only the power readings.
func (r *ring) appendValues(dst []float64, from, hi int64) []float64 {
	older, newer := r.segments()
	for _, seg := range [2][]Point{older, newer} {
		for _, p := range seg {
			if p.Unix >= from && p.Unix <= hi {
				dst = append(dst, p.PowerW)
			}
		}
	}
	return dst
}

// countWindow is the number of points appendWindow would append.
func (r *ring) countWindow(from, hi int64) int {
	n := 0
	older, newer := r.segments()
	for _, seg := range [2][]Point{older, newer} {
		for _, p := range seg {
			if p.Unix >= from && p.Unix <= hi {
				n++
			}
		}
	}
	return n
}

// upper turns the API's "to ≤ 0 means unbounded above" into a bound.
func upper(to int64) int64 {
	if to <= 0 {
		return math.MaxInt64
	}
	return to
}
