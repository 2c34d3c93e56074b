package block

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower/internal/stats"
	"hpcpower/internal/vfs"
)

// DefaultWindowSeconds is the time span of one block file: two hours,
// matching the 2h partitioning of production TSDBs — long enough that
// per-chunk overhead amortizes, short enough that a flush is cheap.
const DefaultWindowSeconds = 2 * 60 * 60

// ErrExists reports an attempt to re-write an already-published window.
// Blocks are immutable: the flusher treats this as "already sealed" and
// advances its frontier — the mechanism that prevents double-ingest
// when WAL replay rebuilds head state that was already flushed.
var ErrExists = errors.New("block: window already sealed")

// Config parameterizes a Store.
type Config struct {
	// Dir is the block directory. It must exist and be writable.
	Dir string
	// WindowSeconds is the block time span. 0 means DefaultWindowSeconds.
	WindowSeconds int64
	// RetentionRaw/Retention5m/Retention1h bound each tier's history;
	// 0 keeps a tier forever. Blocks whose window end is older than
	// now−retention are deleted by EnforceRetention.
	RetentionRaw time.Duration
	Retention5m  time.Duration
	Retention1h  time.Duration
	// CompactInterval is the cadence of the background compact+retention
	// loop started by Start. 0 means 30s.
	CompactInterval time.Duration
	// ScrubInterval is the cadence of the background integrity scrubber
	// started by Start. 0 disables background scrubbing (Scrub stays
	// callable).
	ScrubInterval time.Duration
	// FS is the filesystem blocks are written and read through. Nil
	// means vfs.OS; tests inject a vfs.FaultFS here.
	FS vfs.FS
}

// Store is the on-disk block store: an immutable set of time-partitioned
// block files per tier, with an in-memory catalog of their index
// footers. All methods are safe for concurrent use; files are immutable
// once published, so readers never lock against each other.
type Store struct {
	cfg  Config
	fsys vfs.FS

	// sealMu serializes every publish of a block file (flush and
	// compaction): the dup-check, the atomic write, and the catalog
	// insert happen as one unit. Without it, two concurrent flushes of
	// the same window (background loop + POST /v1/admin/flush) could
	// both pass the dup check and rename over each other — leaving a
	// catalog entry whose offsets and CRCs describe the loser's bytes.
	sealMu sync.Mutex

	mu     sync.RWMutex
	blocks [tierCount]map[int64]*BlockInfo // windowStart → block

	compactions atomic.Int64
	gcDeleted   atomic.Int64
	flushes     atomic.Int64
	distBlocks  [distPaths]atomic.Int64 // raw blocks fleet-wide tallies visited, by path

	// Integrity-scrubber accounting (see scrub.go).
	scrubRuns     atomic.Int64
	scrubLastUnix atomic.Int64
	scrubCorrupt  atomic.Int64 // corrupt blocks found by scrubs + read-path detection
	quarantined   atomic.Int64 // blocks renamed to *.quarantine this process
	quarantineNow atomic.Int64 // *.quarantine files currently in the dir

	stopc    chan struct{}
	stopOnce sync.Once
	loopWG   sync.WaitGroup
	started  atomic.Bool
}

// Open scans dir for published blocks (ignoring unknown files,
// quarantining corrupt ones — a temp file from a crash is swept away) and
// returns the store. A block it cannot read fails the open.
func Open(cfg Config) (*Store, error) {
	if cfg.WindowSeconds <= 0 {
		cfg.WindowSeconds = DefaultWindowSeconds
	}
	if cfg.CompactInterval <= 0 {
		cfg.CompactInterval = 30 * time.Second
	}
	if cfg.FS == nil {
		cfg.FS = vfs.OS
	}
	st, err := cfg.FS.Stat(cfg.Dir)
	switch {
	case os.IsNotExist(err):
		return nil, fmt.Errorf("block: dir %s does not exist (create it first)", cfg.Dir)
	case err != nil:
		return nil, fmt.Errorf("block: dir %s: %w", cfg.Dir, err)
	case !st.IsDir():
		return nil, fmt.Errorf("block: %s is not a directory", cfg.Dir)
	}
	s := &Store{cfg: cfg, fsys: cfg.FS, stopc: make(chan struct{})}
	for t := range s.blocks {
		s.blocks[t] = map[int64]*BlockInfo{}
	}
	vfs.RemoveTemps(s.fsys, cfg.Dir)
	entries, err := s.fsys.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("block: scanning %s: %w", cfg.Dir, err)
	}
	for _, de := range entries {
		name := de.Name()
		if strings.HasSuffix(name, quarantineSuffix) {
			s.quarantineNow.Add(1)
			continue
		}
		if !strings.HasSuffix(name, ".blk") {
			continue
		}
		path := filepath.Join(cfg.Dir, name)
		info, err := OpenBlock(s.fsys, path)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			// A block the disk would not let us read may well be whole:
			// serving without it would answer its window short.
			return nil, fmt.Errorf("block: opening %s: %w", name, err)
		}
		if err != nil {
			// Damaged on disk while we were away: quarantine it now so
			// the catalog only ever holds servable blocks and the
			// evidence survives under a name no reader trusts.
			s.quarantinePath(path)
			s.scrubCorrupt.Add(1)
			continue
		}
		s.blocks[info.Tier][info.WindowStart] = info
	}
	return s, nil
}

// Window returns the block time span in seconds.
func (s *Store) Window() int64 { return s.cfg.WindowSeconds }

func blockName(tier Tier, windowStart int64) string {
	return fmt.Sprintf("%s-%016d.blk", tier, windowStart)
}

// Frontier returns the exclusive end of the newest sealed window across
// all tiers — the timestamp below which reads are served from blocks.
// Derived from the published files themselves, it survives any crash:
// a restarted flusher resumes exactly after the last sealed block.
func (s *Store) Frontier() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var f int64
	for t := range s.blocks {
		for _, b := range s.blocks[t] {
			if end := b.End(); end > f {
				f = end
			}
		}
	}
	return f
}

// WriteRaw seals one window: it encodes every series' points into a
// Gorilla chunk, tallies their values into the block's value table, and
// publishes the raw-tier block file atomically. Points must lie inside
// [windowStart, windowStart+Window()) and be time-sorted per series —
// equal timestamps allowed, a decreasing one refused: reads stop at a
// chunk's first point past their window. Re-sealing a published window
// returns ErrExists without touching the file.
func (s *Store) WriteRaw(windowStart int64, series map[int][]Point) (*BlockInfo, error) {
	win := s.cfg.WindowSeconds
	s.mu.RLock()
	_, dup := s.blocks[TierRaw][windowStart]
	s.mu.RUnlock()
	if dup {
		return nil, ErrExists
	}
	tally := stats.GetTally()
	defer stats.PutTally(tally)
	counting := true
	var enc []encodedSeries
	for node, pts := range series {
		if node < 0 {
			return nil, fmt.Errorf("block: negative node %d", node)
		}
		if len(pts) == 0 {
			continue
		}
		es := encodedSeries{node: node, count: len(pts), samples: int64(len(pts))}
		es.minT, es.maxT = pts[0].T, pts[len(pts)-1].T
		es.minV, es.maxV = pts[0].V, pts[0].V
		prevT := pts[0].T
		for _, p := range pts {
			if p.T < windowStart || p.T >= windowStart+win {
				return nil, fmt.Errorf("block: point t=%d outside window [%d,%d)", p.T, windowStart, windowStart+win)
			}
			if p.T < prevT {
				return nil, fmt.Errorf("block: node %d: point t=%d after t=%d, points must be time-sorted", node, p.T, prevT)
			}
			prevT = p.T
			if p.V < es.minV {
				es.minV = p.V
			}
			if p.V > es.maxV {
				es.maxV = p.V
			}
			counting = counting && tally.Add(p.V)
		}
		es.payload = EncodeChunk(pts)
		enc = append(enc, es)
	}
	if len(enc) == 0 {
		return nil, fmt.Errorf("block: window %d has no points", windowStart)
	}
	var table []stats.ValueCount
	if counting {
		table = tally.Sorted()
	}
	// Seal under the publish lock: the re-check is authoritative because
	// every writer holds sealMu from its dup-check through its catalog
	// insert — a concurrent sealer of the same window either published
	// before us (we return ErrExists without touching the file) or waits
	// until our file is renamed and visible.
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	s.mu.RLock()
	_, dup = s.blocks[TierRaw][windowStart]
	s.mu.RUnlock()
	if dup {
		return nil, ErrExists
	}
	path := filepath.Join(s.cfg.Dir, blockName(TierRaw, windowStart))
	info, err := writeBlockFile(s.fsys, path, TierRaw, windowStart, win, enc, table)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.blocks[TierRaw][windowStart] = info
	s.mu.Unlock()
	s.flushes.Add(1)
	return info, nil
}

// CompactPending builds every missing rollup block: for each sealed
// raw window without a 5m or 1h sibling, the raw chunks are decoded
// once and downsampled into both tiers. Rollups are built from raw (not
// from the finer rollup) so each tier's count/sum/min/max is exactly
// the brute-force aggregate of the raw points it covers. Returns the
// number of rollup blocks published.
func (s *Store) CompactPending() (int, error) {
	s.mu.RLock()
	var pending []*BlockInfo
	for start, raw := range s.blocks[TierRaw] {
		_, have5m := s.blocks[Tier5m][start]
		_, have1h := s.blocks[Tier1h][start]
		if !have5m || !have1h {
			pending = append(pending, raw)
		}
	}
	s.mu.RUnlock()
	sort.Slice(pending, func(a, b int) bool { return pending[a].WindowStart < pending[b].WindowStart })

	built := 0
	for _, raw := range pending {
		n, err := s.compactWindow(raw)
		built += n
		if err != nil {
			return built, err
		}
	}
	return built, nil
}

// decodedSeries is one node's points of a raw block.
type decodedSeries struct {
	node int
	pts  []Point
}

// decodeRaw reads and decodes every chunk of a raw block through one
// handle.
func (s *Store) decodeRaw(raw *BlockInfo) ([]decodedSeries, error) {
	r, err := openBlockReader(s.fsys, raw)
	if err != nil {
		return nil, err
	}
	defer r.close()
	series := make([]decodedSeries, 0, len(raw.Series))
	for _, e := range raw.Series {
		payload, err := r.chunk(e)
		if err != nil {
			return nil, err
		}
		pts, err := DecodeChunk(payload)
		if err != nil {
			return nil, err
		}
		series = append(series, decodedSeries{node: e.Node, pts: pts})
	}
	return series, nil
}

// compactWindow decodes one raw block and publishes its missing rollup
// siblings.
func (s *Store) compactWindow(raw *BlockInfo) (int, error) {
	s.mu.RLock()
	_, have5m := s.blocks[Tier5m][raw.WindowStart]
	_, have1h := s.blocks[Tier1h][raw.WindowStart]
	s.mu.RUnlock()
	if have5m && have1h {
		return 0, nil
	}
	series, err := s.decodeRaw(raw)
	if errors.Is(err, ErrCorrupt) {
		// The raw block rotted before its rollups were built:
		// quarantine it and skip the window — the data this rollup
		// would have carried is gone either way, and leaving the
		// corrupt block cataloged would wedge the compactor forever.
		s.quarantine(raw, err.Error())
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	built := 0
	for _, tier := range []Tier{Tier5m, Tier1h} {
		s.mu.RLock()
		_, have := s.blocks[tier][raw.WindowStart]
		s.mu.RUnlock()
		if have {
			continue
		}
		var enc []encodedSeries
		for _, d := range series {
			aggs := Rollup(d.pts, tier.Step())
			if len(aggs) == 0 {
				continue
			}
			sort.Slice(aggs, func(a, b int) bool { return aggs[a].T < aggs[b].T })
			es := encodedSeries{node: d.node, count: len(aggs), samples: int64(len(d.pts))}
			es.minT, es.maxT = aggs[0].T, aggs[len(aggs)-1].T
			es.minV, es.maxV = aggs[0].Min, aggs[0].Max
			for _, a := range aggs {
				if a.Min < es.minV {
					es.minV = a.Min
				}
				if a.Max > es.maxV {
					es.maxV = a.Max
				}
			}
			es.payload = EncodeAggChunk(aggs)
			enc = append(enc, es)
		}
		if len(enc) == 0 {
			continue
		}
		// Same publish-lock discipline as WriteRaw: the background
		// compactor and a synchronous /v1/admin/flush compaction can
		// race on the same rollup path.
		s.sealMu.Lock()
		s.mu.RLock()
		_, have = s.blocks[tier][raw.WindowStart]
		s.mu.RUnlock()
		if have {
			s.sealMu.Unlock()
			continue
		}
		path := filepath.Join(s.cfg.Dir, blockName(tier, raw.WindowStart))
		info, err := writeBlockFile(s.fsys, path, tier, raw.WindowStart, raw.WindowLen, enc, nil)
		if err != nil {
			s.sealMu.Unlock()
			return built, err
		}
		s.mu.Lock()
		s.blocks[tier][raw.WindowStart] = info
		s.mu.Unlock()
		s.sealMu.Unlock()
		s.compactions.Add(1)
		built++
	}
	return built, nil
}

// EnforceRetention deletes blocks whose window end has aged past their
// tier's retention, returning the number removed. A tier with zero
// retention is kept forever. A block leaves the catalog before its file
// is unlinked, so no reader opens a file that is about to vanish; one
// whose unlink fails comes back and is retried on the next call.
func (s *Store) EnforceRetention(now time.Time) (int, error) {
	limits := map[Tier]time.Duration{
		TierRaw: s.cfg.RetentionRaw,
		Tier5m:  s.cfg.Retention5m,
		Tier1h:  s.cfg.Retention1h,
	}
	removed := 0
	var firstErr error
	for tier, keep := range limits {
		if keep <= 0 {
			continue
		}
		cutoff := now.Add(-keep).Unix()
		s.mu.Lock()
		var victims []*BlockInfo
		for start, b := range s.blocks[tier] {
			if b.End() <= cutoff {
				victims = append(victims, b)
				delete(s.blocks[tier], start)
			}
		}
		s.mu.Unlock()
		for _, b := range victims {
			if err := s.fsys.Remove(b.Path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				// The file is still there: back into the catalog, uncounted,
				// so reads and the size gauges keep seeing it and the next
				// pass tries again.
				s.mu.Lock()
				if _, refilled := s.blocks[tier][b.WindowStart]; !refilled {
					s.blocks[tier][b.WindowStart] = b
				}
				s.mu.Unlock()
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			removed++
			s.gcDeleted.Add(1)
		}
	}
	return removed, firstErr
}

// Start launches the background compactor + retention loop. Safe to
// call once; Stop terminates it.
func (s *Store) Start() {
	if s.started.Swap(true) {
		return
	}
	s.loopWG.Add(1)
	go func() {
		defer s.loopWG.Done()
		t := time.NewTicker(s.cfg.CompactInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.CompactPending()
				s.EnforceRetention(time.Now())
			}
		}
	}()
	if s.cfg.ScrubInterval > 0 {
		s.loopWG.Add(1)
		go func() {
			defer s.loopWG.Done()
			t := time.NewTicker(s.cfg.ScrubInterval)
			defer t.Stop()
			for {
				select {
				case <-s.stopc:
					return
				case <-t.C:
					s.Scrub()
				}
			}
		}()
	}
}

// Stop terminates the background loop started by Start.
func (s *Store) Stop() {
	s.stopOnce.Do(func() { close(s.stopc) })
	s.loopWG.Wait()
}

// TierStats summarizes one tier of the store.
type TierStats struct {
	Blocks  int   `json:"blocks"`
	Bytes   int64 `json:"bytes"`
	Points  int64 `json:"points"`  // stored points (rollup points on rollup tiers)
	Samples int64 `json:"samples"` // raw samples covered
}

// Stats is the store-wide accounting surfaced on /metrics.
type Stats struct {
	Raw               TierStats `json:"raw"`
	Rollup5m          TierStats `json:"rollup_5m"`
	Rollup1h          TierStats `json:"rollup_1h"`
	Flushes           int64     `json:"flushes"`
	Compactions       int64     `json:"compactions"`
	RetentionUnlinked int64     `json:"retention_unlinked"`
	FrontierUnix      int64     `json:"frontier_unix"`
	ScrubRuns         int64     `json:"scrub_runs"`
	ScrubLastUnix     int64     `json:"scrub_last_unix"` // 0 = never scrubbed
	ScrubCorrupt      int64     `json:"scrub_corrupt"`
	Quarantined       int64     `json:"quarantined"`      // renamed this process
	QuarantineFiles   int64     `json:"quarantine_files"` // *.quarantine now on disk
	// BytesPerSample is the raw tier's storage cost per sample — the
	// headline number against the in-memory ring's 16 bytes/point.
	BytesPerSample float64 `json:"bytes_per_sample"`
	// The raw blocks fleet-wide value tallies (distribution pulls) have
	// visited: added whole from the block's value table, decoded as an
	// edge of the window, decoded whole for want of a table.
	DistTable   int64 `json:"dist_table"`
	DistEdge    int64 `json:"dist_edge"`
	DistNoTable int64 `json:"dist_no_table"`
}

// Indices into Store.distBlocks.
const (
	distTable = iota
	distEdge
	distNoTable
	distPaths
)

// Stats reduces the catalog.
func (s *Store) Stats() Stats {
	var out Stats
	s.mu.RLock()
	tiers := [tierCount]*TierStats{&out.Raw, &out.Rollup5m, &out.Rollup1h}
	var frontier int64
	for t := range s.blocks {
		for _, b := range s.blocks[t] {
			ts := tiers[t]
			ts.Blocks++
			ts.Bytes += b.Bytes
			for _, e := range b.Series {
				ts.Points += int64(e.Count)
				ts.Samples += e.Samples
			}
			if end := b.End(); end > frontier {
				frontier = end
			}
		}
	}
	s.mu.RUnlock()
	out.Flushes = s.flushes.Load()
	out.Compactions = s.compactions.Load()
	out.RetentionUnlinked = s.gcDeleted.Load()
	out.FrontierUnix = frontier
	out.ScrubRuns = s.scrubRuns.Load()
	out.ScrubLastUnix = s.scrubLastUnix.Load()
	out.ScrubCorrupt = s.scrubCorrupt.Load()
	out.Quarantined = s.quarantined.Load()
	out.QuarantineFiles = s.quarantineNow.Load()
	out.DistTable = s.distBlocks[distTable].Load()
	out.DistEdge = s.distBlocks[distEdge].Load()
	out.DistNoTable = s.distBlocks[distNoTable].Load()
	if out.Raw.Samples > 0 {
		out.BytesPerSample = float64(out.Raw.Bytes) / float64(out.Raw.Samples)
	}
	return out
}

// Nodes returns every node with at least one chunk in any tier,
// ascending.
func (s *Store) Nodes() []int {
	set := map[int]struct{}{}
	s.mu.RLock()
	for t := range s.blocks {
		for _, b := range s.blocks[t] {
			for _, e := range b.Series {
				set[e.Node] = struct{}{}
			}
		}
	}
	s.mu.RUnlock()
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// windowBlocks gathers every tier's block for one time window.
type windowBlocks struct {
	start int64
	end   int64 // exclusive
	tiers [tierCount]*BlockInfo
}

// windows returns the union of sealed windows across all tiers
// overlapping [from, to] (to ≤ 0 unbounded), sorted by start. Using the
// union — not the raw tier alone — is what keeps aggregate queries
// serving after raw blocks age out of a shorter raw retention while
// their rollup siblings survive.
func (s *Store) windows(from, to int64) []windowBlocks {
	m := map[int64]*windowBlocks{}
	s.mu.RLock()
	for t := range s.blocks {
		for ws, b := range s.blocks[t] {
			if b.End() <= from || (to > 0 && ws > to) {
				continue
			}
			w := m[ws]
			if w == nil {
				w = &windowBlocks{start: ws, end: b.End()}
				m[ws] = w
			}
			w.tiers[t] = b
		}
	}
	s.mu.RUnlock()
	out := make([]windowBlocks, 0, len(m))
	for _, w := range m {
		out = append(out, *w)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].start < out[b].start })
	return out
}

// tierBlocks returns the tier's blocks overlapping [from, to] sorted by
// window start (to ≤ 0 means unbounded above).
func (s *Store) tierBlocks(tier Tier, from, to int64) []*BlockInfo {
	s.mu.RLock()
	out := make([]*BlockInfo, 0, len(s.blocks[tier]))
	for _, b := range s.blocks[tier] {
		if b.End() <= from || (to > 0 && b.WindowStart > to) {
			continue
		}
		out = append(out, b)
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b *BlockInfo) int { return cmp.Compare(a.WindowStart, b.WindowStart) })
	return out
}
