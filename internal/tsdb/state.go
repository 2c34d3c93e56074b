package tsdb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/stats"
)

// StoreState is the exact serializable image of a Store, produced by
// ExportState and consumed by RestoreState — the payload of powserved's
// crash-recovery snapshots. Everything order-sensitive is exported in a
// canonical (sorted) order so identical stores serialize identically,
// and every accumulator is captured bit-for-bit so a restored store
// continues the stream with byte-identical analytics. It round-trips
// through encoding/json as well.
type StoreState struct {
	Shards   int   `json:"shards"`
	RingLen  int   `json:"ring_len"`
	Ingested int64 `json:"ingested"`

	// BlockFrontier is the block-store flush frontier at snapshot time.
	// Restore raises the live frontier to max(snapshot, on-disk blocks),
	// so WAL replay after a crash that landed between a flush and the
	// next snapshot cannot double-ingest already-sealed windows into the
	// block store.
	BlockFrontier int64 `json:"block_frontier,omitempty"`

	// ShardAccs is indexed by node-shard: the moments of the samples of
	// the shard's nodes, which Summarize merges.
	ShardAccs []stats.Moments  `json:"shard_accs"`
	Nodes     []NodeState      `json:"nodes"`
	Jobs      []JobStateExport `json:"jobs"`
}

// NodeState is one node's retained ring, oldest first.
type NodeState struct {
	Node   int     `json:"node"`
	Points []Point `json:"points"`
	// sinceLate is the ring's count of that name when whoever filled in
	// Points had it at hand (ExportState, DecodeNodes); 0 leaves it to
	// InstallState to walk Points for.
	sinceLate int
}

// MinuteState is the readings of one open minute of a job.
type MinuteState struct {
	Minute int64 `json:"minute"`
	stats.Moments
}

// JobStateExport is the streaming state of one job.
type JobStateExport struct {
	ID      uint64        `json:"id"`
	Moments stats.Moments `json:"moments"`
	// Table is the job's readings, counted.
	Table     *TableState   `json:"table,omitempty"`
	Nodes     []int         `json:"nodes"`
	FirstUnix int64         `json:"first_unix"`
	LastUnix  int64         `json:"last_unix"`
	Minutes   []MinuteState `json:"minutes"`
	Spread    stats.Moments `json:"spread"`
	// Trend is the time-series part of the job's anomaly-detection
	// fingerprint, and Folded the newest minute it has folded (job.go).
	Trend  anomaly.Trend `json:"trend"`
	Folded int64         `json:"folded"`
}

// ExportState captures the whole store. It takes each stripe lock in
// turn, so concurrent appends serialize against the export per shard;
// callers needing a globally consistent cut (the snapshot path) must
// quiesce writers first.
func (s *Store) ExportState() *StoreState {
	st := &StoreState{
		Shards:        len(s.shards),
		RingLen:       s.ringLen,
		Ingested:      s.ingested.Load(),
		BlockFrontier: s.frontier.Load(),
		ShardAccs:     make([]stats.Moments, len(s.shards)),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.ShardAccs[i] = sh.acc
		for slot, r := range sh.nodes.rings {
			if r == nil {
				continue
			}
			older, newer := r.segments()
			pts := append(append(make([]Point, 0, r.count), older...), newer...)
			st.Nodes = append(st.Nodes, NodeState{Node: sh.nodes.keys[slot], Points: pts, sinceLate: r.sinceLate})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(st.Nodes, func(a, b int) bool { return st.Nodes[a].Node < st.Nodes[b].Node })

	for i := range s.jobShards {
		js := &s.jobShards[i]
		js.mu.RLock()
		for id, j := range js.jobs {
			st.Jobs = append(st.Jobs, exportJob(id, j))
		}
		js.mu.RUnlock()
	}
	sort.Slice(st.Jobs, func(a, b int) bool { return st.Jobs[a].ID < st.Jobs[b].ID })
	return st
}

func exportJob(id uint64, j *jobState) JobStateExport {
	e := JobStateExport{
		ID:        id,
		Moments:   j.mom,
		Table:     j.table.state(),
		FirstUnix: j.firstUnix,
		LastUnix:  j.lastUnix,
		Spread:    j.spread,
		Trend:     j.trend,
		Folded:    j.folded,
	}
	e.Nodes = make([]int, 0, len(j.nodes))
	for n := range j.nodes {
		e.Nodes = append(e.Nodes, n)
	}
	sort.Ints(e.Nodes)
	for _, m := range j.minutes[:j.nMinutes] {
		e.Minutes = append(e.Minutes, MinuteState{Minute: m.minute, Moments: m.Moments})
	}
	return e
}

// RestoreState loads a captured state into an empty store: InstallState
// with the guard that nothing has been ingested yet.
func (s *Store) RestoreState(st *StoreState) error {
	if s.ingested.Load() != 0 {
		return fmt.Errorf("tsdb: restore into a non-empty store (%d samples ingested)", s.ingested.Load())
	}
	return s.InstallState(st)
}

// InstallState replaces a store's contents with a captured state — the
// follower-bootstrap path, where a standby that has fallen behind the
// primary's reaped WAL installs a full snapshot over whatever it has.
// The shard count must match (per-shard accumulators cannot be
// redistributed); the ring length may differ — each ring keeps the most
// recent window that fits. Everything is validated and built off to the
// side first, then swapped in under the stripe locks, so a failed
// install leaves the store untouched. Callers wanting a consistent cut
// for concurrent readers must quiesce writers around the call (the
// serving layer holds its apply lock).
//
// The store takes ownership of st: a Points slice of at most the
// configured ring length becomes that ring's buffer, so the caller must
// not install st twice into stores that go on ingesting, nor read it
// after the store has.
func (s *Store) InstallState(st *StoreState) error {
	if st.Shards != len(s.shards) {
		return fmt.Errorf("tsdb: snapshot has %d shards, store is configured for %d — open the store with tsdb.Config.Shards = %d",
			st.Shards, len(s.shards), st.Shards)
	}
	if len(st.ShardAccs) != st.Shards {
		return fmt.Errorf("tsdb: snapshot has %d shard accumulators for %d shards", len(st.ShardAccs), st.Shards)
	}
	for i := range st.ShardAccs {
		if !st.ShardAccs[i].Valid() {
			return fmt.Errorf("tsdb: snapshot's shard %d moments are incoherent", i)
		}
	}
	perShard := make([]int, len(s.shards))
	for _, ns := range st.Nodes {
		if ns.Node < 0 {
			return fmt.Errorf("tsdb: snapshot has negative node %d", ns.Node)
		}
		perShard[mix(uint64(ns.Node))&s.mask]++
	}
	nodes := make([]nodeIndex, len(s.shards))
	for i := range nodes {
		nodes[i] = newNodeIndex(perShard[i], s.shardBits)
	}
	for _, ns := range st.Nodes {
		h := mix(uint64(ns.Node))
		nodes[h&s.mask].put(ns.Node, h, ringOf(ns.Points, s.ringLen, ns.sinceLate))
	}
	jobs := make([]map[uint64]*jobState, len(s.jobShards))
	for i := range jobs {
		jobs[i] = map[uint64]*jobState{}
	}
	coarse := 0
	for _, je := range st.Jobs {
		j, err := restoreJob(je)
		if err != nil {
			return fmt.Errorf("tsdb: job %d: %w", je.ID, err)
		}
		jobs[mix(je.ID)&s.jobMask][je.ID] = j
		if j.table.coarse() {
			coarse++
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.nodes = nodes[i]
		sh.acc = st.ShardAccs[i]
		sh.mu.Unlock()
	}
	for i := range s.jobShards {
		js := &s.jobShards[i]
		js.mu.Lock()
		js.jobs = jobs[i]
		js.mu.Unlock()
	}
	s.ingested.Store(st.Ingested)
	s.coarse.Store(int64(coarse))
	s.raiseFrontier(st.BlockFrontier)
	s.heads.reset(0)
	s.recountMem()
	return nil
}

func restoreJob(e JobStateExport) (*jobState, error) {
	if e.Table == nil {
		return nil, fmt.Errorf("no quantile table")
	}
	if !e.Moments.Valid() || !e.Spread.Valid() {
		return nil, fmt.Errorf("moments are incoherent")
	}
	table, err := tableFromState(e.Table, e.Moments.N)
	if err != nil {
		return nil, err
	}
	if !e.Trend.Valid() {
		return nil, fmt.Errorf("fingerprint trend is incoherent")
	}
	if len(e.Minutes) > spatialWindowMinutes {
		return nil, fmt.Errorf("%d open minutes, the window holds %d", len(e.Minutes), spatialWindowMinutes)
	}
	j := &jobState{
		mom:       e.Moments,
		table:     table,
		nodes:     make(map[int]struct{}, len(e.Nodes)),
		firstUnix: e.FirstUnix,
		lastUnix:  e.LastUnix,
		nMinutes:  len(e.Minutes),
		spread:    e.Spread,
		trend:     e.Trend,
		folded:    e.Folded,
	}
	for _, n := range e.Nodes {
		j.nodes[n] = struct{}{}
	}
	for i, m := range e.Minutes {
		if !m.Valid() || m.N == 0 {
			return nil, fmt.Errorf("open minute %d: moments are incoherent", m.Minute)
		}
		j.minutes[i] = minuteAgg{minute: m.Minute, Moments: m.Moments}
	}
	// The exporter writes the window ascending; an image from elsewhere
	// is put in order, and a minute listed twice has no one meaning.
	open := j.minutes[:j.nMinutes]
	slices.SortFunc(open, func(a, b minuteAgg) int { return cmp.Compare(a.minute, b.minute) })
	for i := 1; i < len(open); i++ {
		if open[i].minute == open[i-1].minute {
			return nil, fmt.Errorf("open minute %d listed twice", open[i].minute)
		}
	}
	return j, nil
}
