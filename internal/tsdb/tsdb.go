// Package tsdb is a sharded in-memory time-series store for RAPL-style
// per-node per-minute power samples — the storage engine behind the
// powserved online telemetry service.
//
// Design:
//
//   - node series are partitioned across power-of-two shards by node
//     index; each shard holds a lock-striped index of bounded ring
//     buffers, so concurrent agent pushes for different nodes never
//     contend;
//   - per-job analytics are *incremental*: every sample folds into exact
//     moments (stats.Moments), a count table of 0.1 W steps (the median
//     and p95, exact for readings on that grid), and the exact moments of
//     its minute, from which the spatial spread and the anomaly trend are
//     read — a query is a reduction of bounded state, never a scan over
//     raw samples, and its answer does not depend on the order the
//     samples were applied in;
//   - store-wide summaries merge the per-shard moments, which is
//     integer addition.
//
// All methods are safe for concurrent use.
package tsdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/block"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

// Config sizes the store.
type Config struct {
	// Shards is rounded up to a power of two. 0 means 16.
	Shards int
	// RingLen is the retained samples per node. 0 means 1440 (one day of
	// minute samples).
	RingLen int
}

// DefaultConfig returns the sizing used by powserved.
func DefaultConfig() Config { return Config{Shards: 16, RingLen: 1440} }

// Store is the sharded in-memory TSDB.
type Store struct {
	shards    []shard
	mask      uint64
	shardBits uint // log2(len(shards)): the hash bits the shard takes

	jobShards []jobShard
	jobMask   uint64

	ringLen  int
	scratch  sync.Pool    // *appendScratch
	ingested atomic.Int64 // total samples accepted
	memBytes atomic.Int64 // accounted structural footprint (see memory.go)
	coarse   atomic.Int64 // jobs whose quantile table is coarse
	late     atomic.Int64 // samples applied late (job.go), since the process started

	// Head/block split (see blocks.go): sealed windows flush to blocks,
	// frontier divides block-served from ring-served time.
	blocks   *block.Store
	frontier atomic.Int64

	heads headTables // the head's window tables (see headtables.go)
}

// shard holds the node rings of one partition plus the shard's sample
// accumulator (merged on Summary).
type shard struct {
	mu    sync.RWMutex
	nodes nodeIndex
	acc   stats.Moments
}

// jobShard stripes the per-job streaming state independently of the node
// partitioning (a job spans many nodes and would otherwise serialize on
// one node shard).
type jobShard struct {
	mu   sync.RWMutex
	jobs map[uint64]*jobState
}

// New returns an empty store.
func New(cfg Config) *Store {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.RingLen <= 0 {
		cfg.RingLen = 1440
	}
	n, bits := 1, uint(0)
	for n < cfg.Shards {
		n <<= 1
		bits++
	}
	s := &Store{
		shards:    make([]shard, n),
		mask:      uint64(n - 1),
		shardBits: bits,
		jobShards: make([]jobShard, n),
		jobMask:   uint64(n - 1),
		ringLen:   cfg.RingLen,
	}
	for i := range s.shards {
		s.shards[i].nodes = newNodeIndex(0, bits)
	}
	for i := range s.jobShards {
		s.jobShards[i].jobs = map[uint64]*jobState{}
	}
	s.scratch.New = func() any { return &appendScratch{next: make([]int, n)} }
	s.heads.init()
	return s
}

// splitmix64 finalizer: cheap, well-mixed shard hashing for sequential
// node indices and job IDs.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *Store) nodeShard(node int) *shard {
	return &s.shards[mix(uint64(node))&s.mask]
}

func (s *Store) jobShard(id uint64) *jobShard {
	return &s.jobShards[mix(id)&s.jobMask]
}

// Append ingests a batch of samples. The batch is validated up front and
// rejected whole on the first malformed sample (the ingest API's lenient
// skipping happens a layer up, in the stream reader); a valid batch is
// then counting-sorted by node shard so each stripe lock is taken once
// and each shard sees its samples in batch order, and folded into the
// job analytics one run of equal job IDs at a time — agents ship a batch
// grouped by job, so that is one lock and one lookup per job. Each node
// is hashed once: the hash picks the shard and starts the probe of the
// shard's node index. Once the rings hold the batch, the head tables of
// the windows it wrote to and evicted from are marked stale, before the
// batch counts as ingested.
//
// A ring remembers the job of its newest point, and the shard pass flags
// a sample only when its job differs from that memo: only flagged
// samples write the job's node set. A sample not flagged follows, on its
// ring, one of the same job that was flagged or followed one, so its node
// is in the set once every Append's job pass has run. The flag and the
// memo change together under the stripe lock, so concurrent Appends of
// one node flag every change between them.
func (s *Store) Append(batch []trace.PowerSample) error {
	sc := s.scratch.Get().(*appendScratch)
	defer s.putScratch(sc)
	// next[k] counts shard k's samples, then becomes where in order its
	// next sample index goes: order is the batch's indices by shard,
	// batch order kept within a shard.
	next := sc.next
	clear(next)
	order, hash, moved := sc.sized(len(batch))
	// [lo, hi] spans the batch's timestamps, [evLo, evHi] those of the
	// points it evicts.
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	evLo, evHi := lo, hi
	for i := range batch {
		if err := batch[i].Validate(); err != nil {
			return fmt.Errorf("tsdb: sample %d: %w", i, err)
		}
		hash[i] = mix(uint64(batch[i].Node))
		next[hash[i]&s.mask]++
		lo, hi = min(lo, batch[i].Unix), max(hi, batch[i].Unix)
	}
	first := 0
	for k, n := range next {
		next[k] = first
		first += n
	}
	for i, h := range hash {
		k := h & s.mask
		order[next[k]] = i
		next[k]++
	}
	start := 0
	for k, end := range next {
		if start == end {
			continue
		}
		sh := &s.shards[k]
		sh.mu.Lock()
		for _, i := range order[start:end] {
			smp := &batch[i]
			r := sh.nodes.get(smp.Node, hash[i])
			if r == nil {
				r = newRing(s.ringLen)
				sh.nodes.put(smp.Node, hash[i], r)
				s.memBytes.Add(s.ringBytes())
			}
			moved[i] = r.job != smp.JobID
			r.job = smp.JobID
			if old, full := r.append(Point{Unix: smp.Unix, PowerW: smp.PowerW}); full {
				evLo, evHi = min(evLo, old), max(evHi, old)
			}
			sh.acc.Add(smp.PowerW)
		}
		sh.mu.Unlock()
		start = end
	}
	if lo <= hi {
		s.heads.touched(lo, hi)
	}
	if evLo <= evHi {
		s.heads.touched(evLo, evHi)
	}
	// Per-job streaming analytics (jobID 0 marks idle/system samples).
	for at := 0; at < len(batch); {
		id := batch[at].JobID
		end := at + 1
		for end < len(batch) && batch[end].JobID == id {
			end++
		}
		if id != 0 {
			s.addToJob(id, batch[at:end], moved[at:end])
		}
		at = end
	}
	s.ingested.Add(int64(len(batch)))
	return nil
}

// addToJob folds a run of one job's samples into its streaming state;
// moved flags the samples whose node changed job.
func (s *Store) addToJob(id uint64, run []trace.PowerSample, moved []bool) {
	js := s.jobShard(id)
	js.mu.Lock()
	defer js.mu.Unlock()
	st := js.jobs[id]
	if st == nil {
		st = newJobState()
		js.jobs[id] = st
		s.memBytes.Add(jobStateBytes)
	}
	wasCoarse := st.table.coarse()
	var grown, late int64
	for i := range run {
		if moved[i] {
			st.nodes[run[i].Node] = struct{}{}
		}
		g, l := st.add(run[i].Unix, run[i].PowerW)
		grown += g
		if l {
			late++
		}
	}
	if grown != 0 {
		s.memBytes.Add(grown)
	}
	if late != 0 {
		s.late.Add(late)
	}
	if !wasCoarse && st.table.coarse() {
		s.coarse.Add(1)
	}
}

// appendScratch is the sort space of one Append call: one int per shard,
// and per sample its place in shard order, its node's hash and its
// moved flag.
type appendScratch struct {
	next, order []int
	hash        []uint64
	moved       []bool
}

// sized returns the per-sample slices at length n.
func (sc *appendScratch) sized(n int) (order []int, hash []uint64, moved []bool) {
	if cap(sc.order) < n {
		sc.order, sc.hash, sc.moved = make([]int, n), make([]uint64, n), make([]bool, n)
	}
	return sc.order[:n], sc.hash[:n], sc.moved[:n]
}

// maxPooledOrder bounds the scratch the pool keeps: agents ship batches
// of a few hundred samples, and one 8 MiB body of some 200 k samples
// should not pin its megabytes forever.
const maxPooledOrder = 1 << 14

func (s *Store) putScratch(sc *appendScratch) {
	if cap(sc.order) <= maxPooledOrder {
		s.scratch.Put(sc)
	}
}

// NodeSeries returns the retained samples of a node with
// from ≤ Unix ≤ to (to ≤ 0 means unbounded), in insertion order.
// A node never seen yields an empty, non-nil slice.
func (s *Store) NodeSeries(node int, from, to int64) []Point {
	return s.appendNodeSeries([]Point{}, node, from, upper(to))
}

// appendNodeSeries appends the node's retained samples with
// from ≤ Unix ≤ hi to dst in insertion order, read in place under the
// shard lock; dst grows at most once.
func (s *Store) appendNodeSeries(dst []Point, node int, from, hi int64) []Point {
	sh := s.nodeShard(node)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.nodes.lookup(node)
	if r == nil {
		return dst
	}
	return r.appendWindow(slices.Grow(dst, r.countWindow(from, hi)), from, hi)
}

// JobPower returns the live characterization of a job, and whether any
// samples for it have been ingested.
func (s *Store) JobPower(id uint64) (JobStats, bool) {
	js := s.jobShard(id)
	js.mu.RLock()
	defer js.mu.RUnlock()
	st := js.jobs[id]
	if st == nil {
		return JobStats{}, false
	}
	return st.snapshot(id), true
}

// JobFingerprint returns a job's anomaly-detection fingerprint — the
// detector engine's read path: its trend, and the count, sum, peak and
// newest time of its samples. It is read under the job-shard read lock,
// so it is a consistent point-in-time sketch even while appends continue.
func (s *Store) JobFingerprint(id uint64) (anomaly.Fingerprint, bool) {
	js := s.jobShard(id)
	js.mu.RLock()
	defer js.mu.RUnlock()
	st := js.jobs[id]
	if st == nil {
		return anomaly.Fingerprint{}, false
	}
	return st.fingerprint(), true
}

// Jobs returns the IDs of all jobs with ingested samples, ascending.
func (s *Store) Jobs() []uint64 {
	var out []uint64
	for i := range s.jobShards {
		js := &s.jobShards[i]
		js.mu.RLock()
		for id := range js.jobs {
			out = append(out, id)
		}
		js.mu.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Summary is the store-wide reduction over every ingested sample.
type Summary struct {
	Samples int64   `json:"samples"`
	Nodes   int     `json:"nodes"`
	Jobs    int     `json:"jobs"`
	MeanW   float64 `json:"mean_w"`
	StdW    float64 `json:"std_w"`
	MinW    float64 `json:"min_w"`
	MaxW    float64 `json:"max_w"`
}

// Summarize merges the per-shard moments (stats.Moments.Merge — the
// sharded-then-reduced identity is property-tested in internal/stats)
// into one store-wide view.
func (s *Store) Summarize() Summary {
	var merged stats.Moments
	nodes := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		acc := sh.acc
		nodes += sh.nodes.n
		sh.mu.RUnlock()
		merged.Merge(&acc)
	}
	jobs := 0
	for i := range s.jobShards {
		js := &s.jobShards[i]
		js.mu.RLock()
		jobs += len(js.jobs)
		js.mu.RUnlock()
	}
	out := Summary{Samples: merged.N, Nodes: nodes, Jobs: jobs}
	if merged.N > 0 {
		out.MeanW = merged.Mean()
		out.StdW = merged.Std()
		out.MinW = merged.Min
		out.MaxW = merged.Max
	}
	return out
}

// Ingested returns the total number of samples accepted so far.
func (s *Store) Ingested() int64 { return s.ingested.Load() }

// CoarseJobs counts the jobs the store holds whose median and p95 are
// read within half a bucket rather than exactly: a reading off the 0.1 W
// grid, or readings spanning more than 204.8 W. A table never turns exact
// again and only InstallState replaces jobs, so this is a count of jobs
// now, reset to the installed image's on every install.
func (s *Store) CoarseJobs() int64 { return s.coarse.Load() }

// LateSamples is the number of samples this store has applied for a job
// minute more than foldLagMinutes behind the newest minute of the job it
// had seen: they count in every analytic but the job's anomaly trend, and
// with several ingest workers whether a sample is late can depend on the
// order batches were applied in. A process count: an install leaves it.
func (s *Store) LateSamples() int64 { return s.late.Load() }
