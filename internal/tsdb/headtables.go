package tsdb

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"hpcpower/internal/block"
	"hpcpower/internal/stats"
)

// Head tables: what a sealed block's value table is to a fleet-wide
// pull, for windows the head still holds. Time is cut into windows of the
// block length (block.DefaultWindowSeconds with no block store), and a
// pull that covers a closed window whole — one that ends at or before the
// newest timestamp ever appended — adds that window's (value, count)
// table, kept from an earlier pull, instead of reading every ring. A
// window the pull cuts is read in place, as before.
//
// A table is only as good as its generation. Each window has a counter
// (one of genSlots, by window index: two windows sharing one only ever
// make a table look stale, never current), and Append bumps it after it
// writes: for the windows of the points it adds and of the points full
// rings evict. A table is built by a scan that starts after its window's
// counter is read, and used only while the counter still reads the same,
// so a table in use holds every point of any batch whose Append returned
// before the pull began. InstallState and AttachBlocks bump them all.
//
// No pull takes a complement against a head table, as the leading edge of
// a block does against the block's: the table and a scan running beside
// an append need not agree.
const (
	// maxHeadTables bounds the cache; a pull walking more windows than
	// that would evict its own tables, so it reads the head in place.
	maxHeadTables = 16
	// genSlots is the number of generation counters: a power of two, and
	// more windows than a day of rings spans.
	genSlots = 64
	// headTableOverheadBytes is what a cached table costs beyond its
	// entries.
	headTableOverheadBytes = 64
)

// headTables is a Store's cache of window tables and the counters that
// say whether one is current.
type headTables struct {
	window atomic.Int64 // seconds a table covers
	gens   [genSlots]atomic.Uint64
	// oldest and newest bound every timestamp the rings hold: the
	// extremes of what was ever appended or installed (oldest > newest:
	// nothing was). After InstallState they cover the installed rings
	// only once spanKnown is set again, by the first pull that walks the
	// windows: a restart does not wait for a pass over every ring.
	oldest, newest atomic.Int64
	spanKnown      atomic.Bool

	mu     sync.Mutex
	tables []headTable // oldest first
	bytes  int64       // what tables hold, as MemoryBytes counts it
}

// headTable is the fleet-wide value table of the head's window
// [start, end] as of generation gen.
type headTable struct {
	start, end int64
	gen        uint64
	counts     []stats.ValueCount
}

func (h *headTables) init() {
	h.window.Store(block.DefaultWindowSeconds)
	h.oldest.Store(math.MaxInt64)
	h.newest.Store(math.MinInt64)
	h.spanKnown.Store(true)
}

// gen is the generation counter of window w, the one holding the
// timestamps [w·window, (w+1)·window).
func (h *headTables) gen(w int64) *atomic.Uint64 {
	return &h.gens[uint64(w)&(genSlots-1)]
}

// touched records that the rings changed at timestamps in [lo, hi]: it
// widens the span and bumps the counter of every window in between
// (every counter, past genSlots windows).
func (h *headTables) touched(lo, hi int64) {
	win := h.window.Load()
	for w, n := floorDiv(lo, win), 0; w <= floorDiv(hi, win) && n < genSlots; w, n = w+1, n+1 {
		h.gen(w).Add(1)
	}
	h.widen(lo, hi)
}

// widen stretches the span to take in [lo, hi].
func (h *headTables) widen(lo, hi int64) {
	for cur := h.oldest.Load(); lo < cur && !h.oldest.CompareAndSwap(cur, lo); cur = h.oldest.Load() {
	}
	for cur := h.newest.Load(); hi > cur && !h.newest.CompareAndSwap(cur, hi); cur = h.newest.Load() {
	}
}

// reset drops every table and bumps every counter, for a store whose
// rings or window length were replaced, and returns the bytes the tables
// held. A window of 0 keeps the length and marks the span unknown: the
// rings were replaced.
func (h *headTables) reset(window int64) (freed int64) {
	h.mu.Lock()
	if window > 0 {
		h.window.Store(window)
	} else {
		h.spanKnown.Store(false)
	}
	h.tables, freed, h.bytes = nil, h.bytes, 0
	h.mu.Unlock()
	for i := range h.gens {
		h.gens[i].Add(1)
	}
	return freed
}

// lookup returns the table of [start, end] as of generation gen.
func (h *headTables) lookup(start, end int64, gen uint64) ([]stats.ValueCount, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.tables {
		if t.start == start && t.end == end && t.gen == gen {
			return t.counts, true
		}
	}
	return nil, false
}

// store caches a table, in place of any other of its window, evicting
// the oldest past maxHeadTables, and returns the bytes the cache grew by.
func (h *headTables) store(t headTable) (grown int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	before := h.bytes
	h.tables = slices.DeleteFunc(h.tables, func(c headTable) bool {
		if c.start == t.start {
			h.bytes -= c.footprint()
			return true
		}
		return false
	})
	if len(h.tables) == maxHeadTables {
		h.bytes -= h.tables[0].footprint()
		h.tables = slices.Delete(h.tables, 0, 1)
	}
	h.tables = append(h.tables, t)
	h.bytes += t.footprint()
	return h.bytes - before
}

func (t headTable) footprint() int64 {
	return headTableOverheadBytes + 16*int64(cap(t.counts))
}

// cachedBytes is what the cached tables hold.
func (h *headTables) cachedBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}

// tallyHead adds to t every value the rings hold with from ≤ Unix ≤ hi,
// and reports false where t gave up. The walk spans only the windows
// between the oldest and newest timestamps appended: closed windows the
// range covers whole come from their tables, the rest is read in place.
// Everything read in place — the windows the range cuts, and the tables
// built for up to maxHeadBuilds windows not cached yet — is read in one
// pass over the rings.
func (s *Store) tallyHead(t *stats.Tally, from, hi int64) bool {
	h := &s.heads
	if !h.spanKnown.Load() {
		if oldest, newest, ok := s.headSpan(); ok {
			h.widen(oldest, newest)
		}
		h.spanKnown.Store(true)
	}
	win := h.window.Load()
	lo, top := max(from, h.oldest.Load()), min(hi, h.newest.Load())
	if lo > top {
		return true
	}
	first, last := floorDiv(lo, win), floorDiv(top, win)
	if lo < 0 || top > math.MaxInt64-win || last-first >= maxHeadTables {
		return s.scanHead([]headScan{{from: lo, hi: top, t: t}})
	}
	var scanBuf [maxHeadTables]headScan
	var buildBuf [maxHeadBuilds]headTable
	scans, builds := scanBuf[:0], buildBuf[:0]
	defer func() {
		for _, sc := range scans {
			if sc.t != t {
				stats.PutTally(sc.t)
			}
		}
	}()
	for w := first; w <= last; w++ {
		start, end := w*win, w*win+win-1
		if start >= from && end <= top {
			gen := h.gen(w).Load()
			if counts, ok := h.lookup(start, end, gen); ok {
				if !t.AddCounts(counts) {
					return false
				}
				continue
			}
			if len(builds) < maxHeadBuilds {
				builds = append(builds, headTable{start: start, end: end, gen: gen})
				scans = append(scans, headScan{from: start, hi: end, t: stats.GetTally()})
				continue
			}
		}
		start, end = max(start, lo), min(end, top)
		if n := len(scans); n > 0 && scans[n-1].t == t && scans[n-1].hi+1 == start {
			scans[n-1].hi = end
			continue
		}
		scans = append(scans, headScan{from: start, hi: end, t: t})
	}
	if !s.scanHead(scans) {
		return false
	}
	for _, sc := range scans {
		if sc.t == t {
			continue
		}
		tab := builds[0]
		builds = builds[1:]
		tab.counts = sc.t.AppendCounts(nil)
		s.memBytes.Add(h.store(tab))
		if !t.AddCounts(tab.counts) {
			return false
		}
	}
	return true
}

// maxHeadBuilds bounds the tables one pull builds, and so the tallies it
// holds at once.
const maxHeadBuilds = 4

// headScan is one interval of a pass over the rings and the tally its
// values go to.
type headScan struct {
	from, hi int64
	t        *stats.Tally
}

// scanHead reads the rings in one pass, each in place under its shard's
// read lock, adding to each scan's tally the values with
// from ≤ Unix ≤ hi. It reports false where a tally gave up.
func (s *Store) scanHead(scans []headScan) bool {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, r := range sh.nodes.rings {
			if r == nil {
				continue
			}
			for _, sc := range scans {
				if !r.tallyValues(sc.t, sc.from, sc.hi) {
					sh.mu.RUnlock()
					return false
				}
			}
		}
		sh.mu.RUnlock()
	}
	return true
}

// floorDiv is t/step rounded down.
func floorDiv(t, step int64) int64 {
	q := t / step
	if t%step < 0 {
		q--
	}
	return q
}
