package block

import (
	"errors"
	"math"
	"slices"
	"sort"

	"hpcpower/internal/stats"
	"hpcpower/internal/vfs"
)

// Querier is the read API over a Store. All reads operate on the
// immutable published blocks, so they never contend with flushes.
//
// Every method returns a degraded flag alongside its result: false
// means the answer covers everything the catalog held when the query
// started; true means corruption was detected mid-read — the damaged
// block was quarantined, the query retried against the surviving tiers
// (rollups are exact, so an interior window answers identically), and
// the result is the best the remaining bytes can prove. Callers surface
// the flag instead of failing the query.
type Querier struct {
	s *Store
}

// Querier returns the store's read API.
func (s *Store) Querier() *Querier { return &Querier{s: s} }

// healRetries bounds the quarantine-and-retry loop. Each retry removes
// one corrupt block from the catalog, so the loop terminates on its
// own; the bound is a backstop against a pathological catalog.
const healRetries = 64

// heal runs fn, and when it trips over a provably corrupt block,
// quarantines that block and retries — the read path is the scrubber of
// last resort. Transient I/O errors pass through untouched.
func (q *Querier) heal(fn func() error) (degraded bool, err error) {
	for attempt := 0; ; attempt++ {
		err = fn()
		var ce *CorruptBlockError
		if err == nil || !errors.As(err, &ce) || attempt >= healRetries {
			return degraded, err
		}
		degraded = true
		q.s.scrubCorrupt.Add(1)
		q.s.quarantine(ce.Block, ce.Reason)
	}
}

// corruptIn ties a corruption error to the block it surfaced in so heal
// knows what to quarantine.
func corruptIn(b *BlockInfo, err error) error {
	if err != nil && errors.Is(err, ErrCorrupt) {
		var ce *CorruptBlockError
		if !errors.As(err, &ce) {
			return &CorruptBlockError{Block: b, Reason: err.Error()}
		}
	}
	return err
}

// upper turns the API's "to ≤ 0 means unbounded above" into a bound
// the per-entry and per-point comparisons can use unconditionally.
func upper(to int64) int64 {
	if to <= 0 {
		return math.MaxInt64
	}
	return to
}

// Range returns the node's raw points with from ≤ t ≤ to (to ≤ 0 means
// unbounded), in time order, decoded from raw-tier chunks. Window
// bounds in the index let whole blocks and whole chunks be skipped
// without decoding.
func (q *Querier) Range(node int, from, to int64) ([]Point, bool, error) {
	return AppendRange(q, nil, node, from, to, func(t int64, v float64) Point { return Point{T: t, V: v} })
}

// AppendRange is Range for a caller with a point type of its own: the
// points are decoded straight into dst, each built by mk, with no
// []Point in between. dst grows once, by the index's point counts. When
// corruption forces a quarantine-and-retry, dst is cut back to its
// length at the call, so it never holds a point twice.
func AppendRange[P any](q *Querier, dst []P, node int, from, to int64, mk func(t int64, v float64) P) ([]P, bool, error) {
	start, hi := len(dst), upper(to)
	degraded, err := q.heal(func() error {
		dst = dst[:start]
		blocks := q.s.tierBlocks(TierRaw, from, to)
		n := 0
		for _, b := range blocks {
			n += b.pointsIn([]int{node}, from, hi)
		}
		dst = slices.Grow(dst, n)
		for _, b := range blocks {
			e, ok := b.entryIn(node, from, hi)
			if !ok {
				continue
			}
			r, err := openBlockReader(q.s.fsys, b)
			if err != nil {
				return err
			}
			payload, err := r.chunk(e)
			if err == nil {
				dst, err = appendChunkPoints(dst, payload, from, hi, mk)
			}
			r.close()
			if err != nil {
				return corruptIn(b, err)
			}
		}
		return nil
	})
	if err != nil {
		return dst[:start], degraded, err
	}
	return dst, degraded, nil
}

// tierFor picks the coarsest tier whose step divides the requested one —
// a 1h query reads 1h rollups, a 5m query reads 5m rollups, anything
// finer reads raw.
func tierFor(step int64) Tier {
	switch {
	case step >= 3600 && step%3600 == 0:
		return Tier1h
	case step >= 300 && step%300 == 0:
		return Tier5m
	default:
		return TierRaw
	}
}

// RangeAgg returns step-aligned aggregate buckets for the node over
// [from, to] (to ≤ 0 unbounded). Every bucket aggregates exactly the
// raw samples with from ≤ t ≤ to — the same contract as bucketing head
// samples on the fly, so results are identical on either side of the
// flush frontier. Windows fully inside the range are read from the
// coarsest rollup tier compatible with step (exact — rollup points
// carry count/sum/min/max), falling back tier-by-tier to raw for
// windows not yet compacted; windows straddling from/to are re-rolled
// from raw so edge buckets never include out-of-range samples. The
// walk covers the union of windows across all tiers, so aggregates
// keep serving from rollups after raw blocks age out of retention —
// and, via the same fallback, after a corrupt block is quarantined
// mid-query (degraded reports that).
func (q *Querier) RangeAgg(node int, from, to, step int64) ([]AggPoint, bool, error) {
	if step <= 0 {
		step = 60
	}
	pref := tierFor(step)
	var out []AggPoint
	degraded, err := q.heal(func() error {
		idx := map[int64]int{}
		out = out[:0]
		merge := func(aggs []AggPoint) {
			for _, a := range aggs {
				b := a.T - mod(a.T, step)
				i, ok := idx[b]
				if !ok {
					idx[b] = len(out)
					a.T = b
					out = append(out, a)
					continue
				}
				dst := &out[i]
				dst.Count += a.Count
				dst.Sum += a.Sum
				if a.Min < dst.Min {
					dst.Min = a.Min
				}
				if a.Max > dst.Max {
					dst.Max = a.Max
				}
			}
		}
		for _, w := range q.s.windows(from, to) {
			aggs, err := q.windowAggs(w, node, pref, step, from, to)
			if err != nil {
				return err
			}
			merge(aggs)
		}
		return nil
	})
	if err != nil {
		return nil, degraded, err
	}
	sort.Slice(out, func(a, b int) bool { return out[a].T < out[b].T })
	return out, degraded, nil
}

// windowAggs produces range-filtered aggregates for one window, reading
// the best available tier ≤ pref.
func (q *Querier) windowAggs(w windowBlocks, node int, pref Tier, step, from, to int64) ([]AggPoint, error) {
	// A window fully inside [from, to] can be served straight from a
	// rollup chunk: every rollup point covers only in-range samples.
	interior := w.start >= from && (to <= 0 || w.end-1 <= to)
	if interior {
		for tier := pref; tier > TierRaw; tier-- {
			if tier.Step() > step {
				continue
			}
			b := w.tiers[tier]
			if b == nil {
				continue
			}
			e, ok := b.entry(node)
			if !ok {
				return nil, nil
			}
			aggs, err := readChunk(q.s.fsys, b, e, DecodeAggChunk)
			return aggs, corruptIn(b, err)
		}
	}
	// Raw path: not yet compacted, or a boundary window whose edge
	// buckets must be rebuilt from per-sample filtering.
	if raw := w.tiers[TierRaw]; raw != nil {
		e, ok := raw.entry(node)
		if !ok {
			return nil, nil
		}
		pts, err := readChunk(q.s.fsys, raw, e, DecodeChunk)
		if err != nil {
			return nil, corruptIn(raw, err)
		}
		if !interior {
			kept := pts[:0]
			for _, p := range pts {
				if p.T < from || (to > 0 && p.T > to) {
					continue
				}
				kept = append(kept, p)
			}
			pts = kept
		}
		return Rollup(pts, step), nil
	}
	// Boundary window whose raw block has aged out of retention: serve
	// the surviving rollup points clipped to whole in-range buckets —
	// a trailing/leading rollup bucket straddling from/to is dropped
	// rather than reported with out-of-range samples folded in. The
	// finest tier ≤ pref clips the least at the edges (every tier ≤
	// pref step-aligns with the query, so any of them is exact).
	for tier := Tier5m; tier <= pref; tier++ {
		b := w.tiers[tier]
		if b == nil {
			continue
		}
		e, ok := b.entry(node)
		if !ok {
			return nil, nil
		}
		aggs, err := readChunk(q.s.fsys, b, e, DecodeAggChunk)
		if err != nil {
			return nil, corruptIn(b, err)
		}
		kept := aggs[:0]
		for _, a := range aggs {
			if a.T < from || (to > 0 && a.T+tier.Step()-1 > to) {
				continue
			}
			kept = append(kept, a)
		}
		return kept, nil
	}
	return nil, nil
}

// AppendValues appends to dst every raw value of the given nodes inside
// [from, to] (to ≤ 0 unbounded; no nodes means all nodes) — the pull
// behind ECDF and quantile extraction over months of data: only the
// float64 values are kept, never the decoded points, and they arrive
// grouped by block and node, not time sorted. Each block is opened
// once; when all nodes are wanted its chunks are read as one region,
// otherwise chunk by chunk through the same handle. dst grows once, by
// the index's point counts. When corruption forces a quarantine-and-
// retry (degraded=true), dst is cut back to its length at the call, so
// it holds each surviving value exactly once.
func (q *Querier) AppendValues(dst []float64, nodes []int, from, to int64) ([]float64, bool, error) {
	start, hi := len(dst), upper(to)
	nodes = uniqueNodes(nodes)
	degraded, err := q.heal(func() error {
		dst = dst[:start]
		blocks := q.s.tierBlocks(TierRaw, from, to)
		n := 0
		for _, b := range blocks {
			n += b.pointsIn(nodes, from, hi)
		}
		dst = slices.Grow(dst, n)
		for _, b := range blocks {
			var err error
			if dst, err = q.appendBlockValues(dst, b, nodes, from, hi); err != nil {
				return corruptIn(b, err)
			}
		}
		return nil
	})
	if err != nil {
		return dst[:start], degraded, err
	}
	return dst, degraded, nil
}

// appendBlockValues is AppendValues over one block.
func (q *Querier) appendBlockValues(dst []float64, b *BlockInfo, nodes []int, from, hi int64) ([]float64, error) {
	err := q.eachChunk(b, nodes, from, hi, func(payload []byte) (err error) {
		dst, err = appendChunkValues(dst, payload, from, hi)
		return err
	})
	return dst, err
}

// eachChunk hands fn the verified payload of each chunk of b that a read
// of the given nodes (none means all) over [from, hi] touches, through one
// handle. When all nodes are wanted the chunks are read as one region,
// otherwise chunk by chunk.
func (q *Querier) eachChunk(b *BlockInfo, nodes []int, from, hi int64, fn func(payload []byte) error) error {
	if len(b.Series) == 0 {
		return nil
	}
	r, err := openBlockReader(q.s.fsys, b)
	if err != nil {
		return err
	}
	defer r.close()
	scan := func(e IndexEntry) error {
		payload, err := r.chunk(e)
		if err != nil {
			return err
		}
		return fn(payload)
	}
	if len(nodes) == 0 {
		if err := r.prefetch(b.Series); err != nil {
			return err
		}
		for _, e := range b.Series {
			if e.overlaps(from, hi) {
				if err := scan(e); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, node := range nodes {
		if e, ok := b.entryIn(node, from, hi); ok {
			if err := scan(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// errTallyFull stops a TallyValues scan whose tally gave up.
var errTallyFull = errors.New("block: value tally full")

// TallyValues adds to t, which must be empty, every raw value of the
// given nodes inside [from, to] (to ≤ 0 unbounded; no nodes means all
// nodes): what AppendValues would append, as counts. A fleet-wide tally
// adds the value table of each block whose samples all lie inside the
// window and decodes nothing of it. The block the window's start cuts,
// when the window's end does not, goes by complement: its table is
// added and the values before from, decoded up to the first point at or
// after it, are taken off again — the first block a pull visits, so t
// holds that table alone and a value it lacks, or holds too few times,
// is corruption of the block. Other edge blocks, blocks without a table
// and node subsets are decoded, a chunk only up to its first point past
// to. ok is false when t gave up — more distinct values than a tally
// holds, or a NaN: t is then spent, and the caller gathers the values
// with AppendValues instead. degraded is AppendValues's; a retry after a
// quarantine starts t over.
//
// Fleet-wide tallies count the blocks they visit, by path, in Stats;
// both kinds of edge count as edges.
func (q *Querier) TallyValues(t *stats.Tally, nodes []int, from, to int64) (ok, degraded bool, err error) {
	hi := upper(to)
	nodes = uniqueNodes(nodes)
	var paths [distPaths]int64
	degraded, err = q.heal(func() error {
		t.Reset()
		paths = [distPaths]int64{}
		for _, b := range q.s.tierBlocks(TierRaw, from, to) {
			whole := b.within(from, hi)
			table := len(nodes) == 0 && b.Values != nil
			switch {
			case !whole:
				paths[distEdge]++
				if table && t.Empty() && b.within(math.MinInt64, hi) {
					if !t.AddCounts(b.Values) {
						return errTallyFull
					}
					err := q.eachChunk(b, nil, math.MinInt64, from-1, func(payload []byte) error {
						return untallyChunkValues(t, payload, from)
					})
					if err != nil {
						return corruptIn(b, err)
					}
					continue
				}
			case b.Values == nil:
				paths[distNoTable]++
			case table:
				paths[distTable]++
				if !t.AddCounts(b.Values) {
					return errTallyFull
				}
				continue
			}
			err := q.eachChunk(b, nodes, from, hi, func(payload []byte) error {
				return tallyChunkValues(t, payload, from, hi)
			})
			if err != nil {
				return corruptIn(b, err)
			}
		}
		return nil
	})
	if len(nodes) == 0 {
		for p, n := range paths {
			q.s.distBlocks[p].Add(n)
		}
	}
	if errors.Is(err, errTallyFull) {
		return false, degraded, nil
	}
	return err == nil, degraded, err
}

// uniqueNodes is nodes sorted and without repeats, in a copy.
func uniqueNodes(nodes []int) []int {
	nodes = slices.Clone(nodes)
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// Quantiles returns the requested quantiles (each in [0,1]) of all raw
// values of the given nodes in [from, to], using the same nearest-rank
// convention as internal/stats: q of n sorted values is the element at
// ceil(q·n)−1. The values are counted (TallyValues), not sorted — unless
// they hold more distinct values than a tally does.
func (q *Querier) Quantiles(nodes []int, from, to int64, qs []float64) ([]float64, bool, error) {
	t := stats.GetTally()
	defer stats.PutTally(t)
	ok, degraded, err := q.TallyValues(t, nodes, from, to)
	if err != nil {
		return nil, degraded, err
	}
	var n int
	var at func(rank int) float64
	if ok {
		counts := t.Sorted()
		for _, c := range counts {
			n += int(c.N)
		}
		at = func(rank int) float64 {
			for _, c := range counts {
				if rank < int(c.N) {
					return c.V
				}
				rank -= int(c.N)
			}
			panic("block: rank past the tally")
		}
	} else {
		vals, deg, err := q.AppendValues(nil, nodes, from, to)
		degraded = degraded || deg
		if err != nil {
			return nil, degraded, err
		}
		stats.SortFloat64s(vals)
		n, at = len(vals), func(rank int) float64 { return vals[rank] }
	}
	out := make([]float64, len(qs))
	if n == 0 {
		return out, degraded, nil
	}
	for i, qq := range qs {
		k := 0
		switch {
		case qq >= 1:
			k = n - 1
		case qq > 0:
			k = min(int(math.Ceil(qq*float64(n)))-1, n-1)
		}
		out[i] = at(k)
	}
	return out, degraded, nil
}

// readChunk reads, verifies and decodes one chunk on a handle of its
// own — for reads that touch one chunk of a block.
func readChunk[T any](fsys vfs.FS, b *BlockInfo, e IndexEntry, decode func([]byte) ([]T, error)) ([]T, error) {
	r, err := openBlockReader(fsys, b)
	if err != nil {
		return nil, err
	}
	defer r.close()
	payload, err := r.chunk(e)
	if err != nil {
		return nil, err
	}
	return decode(payload)
}
