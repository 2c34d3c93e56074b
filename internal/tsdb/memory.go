package tsdb

// Memory accounting for the admission layer's watermark. The store does
// not track every byte the runtime allocates; it tracks the *structural*
// footprint — what grows without bound as the fleet grows: one bounded
// ring per node and one bounded streaming state per job — plus the
// head's cached window tables, at most maxHeadTables of them. Rings and
// job state are accounted once at creation (rings at the length they
// grow to, job state at the bound the spatial-window cap sets), a job's
// quantile table each time it grows (it is capped at 8 KB), and a head
// table when it is cached or evicted, so the hot
// append path pays nothing per sample: no arithmetic, no atomics.
const (
	// pointBytes is sizeof(Point): one int64 + one float64.
	pointBytes = 16
	// ringOverheadBytes covers the ring struct, slice header, and
	// node-index slots that carry each node's buffer.
	ringOverheadBytes = 64
	// jobStateBytes is a fixed estimate of one jobState without its
	// quantile table: the job's and the spread's exact moments (72 B
	// each), the fingerprint's trend (144 B), first, last and fold
	// frontier, and the open-minute window of 16 minutes' exact moments
	// (1,280 B) — about 1.6 KB in all — plus the nodes map, the one part
	// that grows unaccounted. Jobs with thousands of nodes exceed it, but
	// job count dwarfs node-set variance at fleet scale and the watermark
	// only needs to be proportional, not exact.
	jobStateBytes = 2048
)

// ringBytes is the accounted footprint of one node ring at the
// configured retention: a reservation, whatever the ring holds yet, so
// the watermark does not move as rings grow.
func (s *Store) ringBytes() int64 {
	return int64(ringOverheadBytes + pointBytes*s.ringLen)
}

// MemoryBytes returns the accounted structural footprint of the store:
// node rings plus job streaming state. It is a single atomic load,
// maintained at ring/job creation and table growth and recounted on
// snapshot restore.
func (s *Store) MemoryBytes() int64 { return s.memBytes.Load() }

// recountMem rebuilds the memory account from the live indexes — used after
// bulk loads (restore, follower bootstrap) where incremental accounting
// would be noise.
func (s *Store) recountMem() {
	nodes := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		nodes += sh.nodes.n
		sh.mu.RUnlock()
	}
	var jobs int64
	for i := range s.jobShards {
		js := &s.jobShards[i]
		js.mu.RLock()
		for _, j := range js.jobs {
			jobs += jobStateBytes + j.table.bytes()
		}
		js.mu.RUnlock()
	}
	s.memBytes.Store(int64(nodes)*s.ringBytes() + jobs + s.heads.cachedBytes())
}

// dedupAgentOverheadBytes covers one agentWindow struct, its slice
// header, and the map entry, beyond the bitmap itself.
const dedupAgentOverheadBytes = 112

// MemoryBytes returns the accounted footprint of the dedup index:
// per-agent bitmap plus fixed overhead, times tracked agents.
func (d *Deduper) MemoryBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.agents)) * (int64(d.window/8) + dedupAgentOverheadBytes)
}
