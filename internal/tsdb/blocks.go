package tsdb

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"

	"hpcpower/internal/block"
	"hpcpower/internal/stats"
)

// Head/block split: the sharded rings stay the hot head of the store;
// an attached block.Store receives sealed time windows and serves the
// long tail. The flush frontier F divides the two worlds — merged reads
// take t < F from blocks and t ≥ F from the rings, so no sample is ever
// served twice. F is derived from the published block files themselves
// (and raised by a recovered snapshot's recorded frontier), which is
// what makes crash recovery double-ingest-proof: WAL replay may rebuild
// ring points below F, but the flusher never re-seals a window below F
// and block.Store.WriteRaw refuses existing windows outright.

// AttachBlocks wires a block store under the head. The flush frontier
// starts at the newest sealed window already on disk, and the head's
// window tables start over at the block length.
func (s *Store) AttachBlocks(bs *block.Store) {
	s.blocks = bs
	s.raiseFrontier(bs.Frontier())
	s.memBytes.Add(-s.heads.reset(bs.Window()))
}

// Blocks returns the attached block store (nil if running head-only).
func (s *Store) Blocks() *block.Store { return s.blocks }

// BlockFrontier returns the flush frontier: reads below it are served
// from blocks, at or above it from the head rings. Zero when no window
// was ever sealed.
func (s *Store) BlockFrontier() int64 { return s.frontier.Load() }

// raiseFrontier lifts the frontier monotonically (it never moves back).
func (s *Store) raiseFrontier(f int64) {
	for {
		cur := s.frontier.Load()
		if f <= cur || s.frontier.CompareAndSwap(cur, f) {
			return
		}
	}
}

// FlushBlocks seals every whole window that ends at or before cutUnix,
// starting at the current frontier, and publishes each as a raw-tier
// block. Empty windows advance the frontier without producing a file.
// Returns the number of blocks published. Safe to call concurrently
// with appends: a sample landing in a window mid-seal stays in the ring
// and is indistinguishable from a late sample (served by the head until
// its window would be re-sealed — which never happens — so callers
// should pick cutUnix a grace period behind the ingest watermark).
func (s *Store) FlushBlocks(cutUnix int64) (int, error) {
	bs := s.blocks
	if bs == nil {
		return 0, nil
	}
	win := bs.Window()
	start := s.frontier.Load()
	minT, maxT, ok := s.headSpan()
	if !ok {
		return 0, nil
	}
	if start == 0 {
		start = minT - floorMod(minT, win)
	}
	sealed := 0
	for ws := start; ws+win <= cutUnix && ws <= maxT; ws += win {
		series := s.collectWindow(ws, ws+win-1)
		if len(series) > 0 {
			if _, err := bs.WriteRaw(ws, series); err != nil && !errors.Is(err, block.ErrExists) {
				return sealed, err
			} else if err == nil {
				sealed++
			}
		}
		s.raiseFrontier(ws + win)
	}
	return sealed, nil
}

// headSpan reports the min and max sample timestamps currently held in
// the rings.
func (s *Store) headSpan() (minT, maxT int64, ok bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, r := range sh.nodes.rings {
			if r == nil {
				continue
			}
			r.window(math.MinInt64, math.MaxInt64, func(run []Point) {
				if r.ordered() {
					run = []Point{run[0], run[len(run)-1]} // a run in time order spans its ends
				}
				for _, p := range run {
					if !ok || p.Unix < minT {
						minT = p.Unix
					}
					if !ok || p.Unix > maxT {
						maxT = p.Unix
					}
					ok = true
				}
			})
		}
		sh.mu.RUnlock()
	}
	return minT, maxT, ok
}

// collectWindow gathers every ring's points inside [from, to] as
// time-sorted block points, keyed by node.
func (s *Store) collectWindow(from, to int64) map[int][]block.Point {
	out := map[int][]block.Point{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for slot, r := range sh.nodes.rings {
			if r == nil {
				continue
			}
			var bp []block.Point
			r.window(from, to, func(run []Point) {
				bp = slices.Grow(bp, len(run))
				for _, p := range run {
					bp = append(bp, block.Point{T: p.Unix, V: p.PowerW})
				}
			})
			if len(bp) > 0 {
				out[sh.nodes.keys[slot]] = bp
			}
		}
		sh.mu.RUnlock()
	}
	for _, bp := range out {
		sort.SliceStable(bp, func(a, b int) bool { return bp[a].T < bp[b].T })
	}
	return out
}

func floorMod(t, step int64) int64 {
	m := t % step
	if m < 0 {
		m += step
	}
	return m
}

// span is one side's share of a merged read: [from, to], or nothing to
// serve when ok is false.
type span struct {
	from, to int64
	ok       bool
}

// split cuts a read of [from, to] (to ≤ 0 unbounded) at the flush
// frontier F: sealed blocks serve [from, min(to, F−1)], the head serves
// [max(from, F), to]. Head points replayed below F are the blocks' to
// serve, so no sample is served twice.
func (s *Store) split(from, to int64) (blocks, head span) {
	f := s.frontier.Load()
	if s.blocks != nil && f > 0 && from < f {
		blocks = span{from: from, to: f - 1, ok: true}
		if to > 0 && to < blocks.to {
			blocks.to = to
		}
	}
	head = span{from: max(from, f), to: upper(to)}
	head.ok = head.to >= head.from
	return blocks, head
}

// QueryRange is the merged range read: raw points of the node with
// from ≤ t ≤ to (to ≤ 0 unbounded), blocks below the frontier, head at
// or above it, in time order. degraded=true means block-side corruption
// was quarantined mid-read and the result may be missing the damaged
// window's raw points.
func (s *Store) QueryRange(node int, from, to int64) ([]Point, bool, error) {
	blk, head := s.split(from, to)
	var out []Point
	var degraded bool
	if blk.ok {
		var err error
		out, degraded, err = block.AppendRange(s.blocks.Querier(), out, node, blk.from, blk.to,
			func(t int64, v float64) Point { return Point{Unix: t, PowerW: v} })
		if err != nil {
			return nil, degraded, err
		}
	}
	if head.ok {
		out = s.appendNodeSeries(out, node, head.from, head.to)
	}
	// Blocks are time-sorted and rings are in arrival order, which is
	// time order unless a late sample landed.
	byTime := func(a, b Point) int { return cmp.Compare(a.Unix, b.Unix) }
	if !slices.IsSortedFunc(out, byTime) {
		slices.SortStableFunc(out, byTime)
	}
	return out, degraded, nil
}

// QueryAgg is the merged aggregate read: step-aligned count/sum/min/max
// buckets over [from, to], rollup tiers below the frontier, head points
// bucketed on the fly above it. to must be positive (aggregates need a
// closed window). degraded=true means block-side corruption was
// quarantined mid-read; rollup fallback usually keeps the buckets exact.
func (s *Store) QueryAgg(node int, from, to, step int64) ([]block.AggPoint, bool, error) {
	if step <= 0 {
		step = 60
	}
	blk, head := s.split(from, to)
	var out []block.AggPoint
	var degraded bool
	if blk.ok {
		aggs, deg, err := s.blocks.Querier().RangeAgg(node, blk.from, blk.to, step)
		degraded = deg
		if err != nil {
			return nil, degraded, err
		}
		out = aggs
	}
	if head.ok {
		pts := s.appendNodeSeries(nil, node, head.from, head.to)
		raw := make([]block.Point, len(pts))
		for i, p := range pts {
			raw[i] = block.Point{T: p.Unix, V: p.PowerW}
		}
		// Arrival order is time order unless a late sample landed.
		byTime := func(a, b block.Point) int { return cmp.Compare(a.T, b.T) }
		if !slices.IsSortedFunc(raw, byTime) {
			slices.SortStableFunc(raw, byTime)
		}
		out = mergeAggs(out, block.Rollup(raw, step), step)
	}
	byTime := func(a, b block.AggPoint) int { return cmp.Compare(a.T, b.T) }
	if !slices.IsSortedFunc(out, byTime) {
		slices.SortFunc(out, byTime)
	}
	return out, degraded, nil
}

// mergeAggs folds extra buckets into base (same step alignment). A
// bucket split across the frontier merges head-side into block-side.
func mergeAggs(base, extra []block.AggPoint, step int64) []block.AggPoint {
	if len(extra) == 0 {
		return base
	}
	idx := make(map[int64]int, len(base))
	for i, a := range base {
		idx[a.T] = i
	}
	for _, a := range extra {
		if i, ok := idx[a.T]; ok {
			dst := &base[i]
			dst.Count += a.Count
			dst.Sum += a.Sum
			if a.Min < dst.Min {
				dst.Min = a.Min
			}
			if a.Max > dst.Max {
				dst.Max = a.Max
			}
			continue
		}
		idx[a.T] = len(base)
		base = append(base, a)
	}
	return base
}

// AppendValuesMerged appends to dst every raw value of the given nodes
// in [from, to] (no nodes = all nodes, to ≤ 0 unbounded) across blocks
// and head — the substrate for live ECDF/distribution pulls over months
// of data. Only the values are gathered — no timestamps, no points, no
// per-node series — grouped per source, not time sorted; distribution
// consumers sort or bin anyway. The block side decodes chunks straight
// into dst; the head side reads each ring in place under its shard's
// read lock. degraded=true reports that block-side corruption forced a
// quarantine-and-retry; dst then still holds each surviving value
// exactly once.
func (s *Store) AppendValuesMerged(dst []float64, nodes []int, from, to int64) ([]float64, bool, error) {
	blk, head := s.split(from, to)
	var degraded bool
	if blk.ok {
		var err error
		dst, degraded, err = s.blocks.Querier().AppendValues(dst, nodes, blk.from, blk.to)
		if err != nil {
			return dst, degraded, err
		}
	}
	if !head.ok {
		return dst, degraded, nil
	}
	if len(nodes) == 0 {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			for _, r := range sh.nodes.rings {
				if r != nil {
					dst = r.appendValues(dst, head.from, head.to)
				}
			}
			sh.mu.RUnlock()
		}
		return dst, degraded, nil
	}
	nodes = slices.Clone(nodes)
	slices.Sort(nodes)
	for _, node := range slices.Compact(nodes) {
		sh := s.nodeShard(node)
		sh.mu.RLock()
		if r := sh.nodes.lookup(node); r != nil {
			dst = r.appendValues(dst, head.from, head.to)
		}
		sh.mu.RUnlock()
	}
	return dst, degraded, nil
}

// TallyValues is the fleet-wide AppendValuesMerged into a tally: every
// raw value with from ≤ t ≤ to (to ≤ 0 unbounded), blocks and head, is
// added to t, which must be empty — sealed blocks the window covers by
// their value tables, edge blocks decoded (the leading one by complement
// against its table), the head's closed windows the range covers whole
// by their cached tables and the rest of the head read in place under
// each shard's read lock (tallyHead). ok is false when t gave up (more
// distinct values than it holds, or a NaN): t is spent, and the caller
// gathers the values with AppendValuesMerged instead. degraded is
// AppendValuesMerged's.
func (s *Store) TallyValues(t *stats.Tally, from, to int64) (ok, degraded bool, err error) {
	blk, head := s.split(from, to)
	ok = true
	if blk.ok {
		if ok, degraded, err = s.blocks.Querier().TallyValues(t, nil, blk.from, blk.to); !ok || err != nil {
			return ok, degraded, err
		}
	}
	if !head.ok {
		return ok, degraded, nil
	}
	return s.tallyHead(t, head.from, head.to), degraded, nil
}

// NodeIDs returns every node known to head or blocks, ascending.
func (s *Store) NodeIDs() []int {
	set := map[int]struct{}{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for slot, r := range sh.nodes.rings {
			if r != nil {
				set[sh.nodes.keys[slot]] = struct{}{}
			}
		}
		sh.mu.RUnlock()
	}
	if s.blocks != nil {
		for _, n := range s.blocks.Nodes() {
			set[n] = struct{}{}
		}
	}
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
