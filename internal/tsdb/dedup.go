package tsdb

import (
	"fmt"
	"sort"
	"sync"
)

// Deduper is the server half of the exactly-once-analytics contract: a
// per-agent sliding window over batch sequence numbers. The transport is
// at-least-once (the shipper re-sends until it sees a 202), so the same
// (AgentID, Seq) can arrive twice — once counted, the redelivery must be
// dropped before it reaches the moments/count-table/overshoot
// accumulators, which cannot un-add a sample.
//
// Per agent it keeps the highest sequence seen plus a fixed bitmap of
// the last Window sequences, so moderately out-of-order redelivery is
// tolerated while memory stays O(agents × window bits). A sequence that
// has fallen behind the window is treated as a duplicate: accepting it
// could double-count, and a shipper never lags its own highest ack by
// more than its bounded spill buffer anyway.
type Deduper struct {
	mu        sync.Mutex
	window    uint64 // multiple of 64
	maxAgents int
	agents    map[string]*agentWindow
	clock     uint64 // touch counter for LRU eviction
}

type agentWindow struct {
	init    bool
	maxSeq  uint64
	bits    []uint64 // bit (seq % window) set ⇒ seq seen, for seqs in (maxSeq-window, maxSeq]
	touched uint64
}

// DedupConfig sizes a Deduper.
type DedupConfig struct {
	// Window is the per-agent reordering tolerance in batches, rounded up
	// to a multiple of 64. 0 means 4096.
	Window int
	// MaxAgents bounds the tracked agents; the least recently active agent
	// is evicted beyond it. 0 means 1024.
	MaxAgents int
}

// NewDeduper returns an empty dedup index.
func NewDeduper(cfg DedupConfig) *Deduper {
	if cfg.Window <= 0 {
		cfg.Window = 4096
	}
	w := uint64((cfg.Window + 63) / 64 * 64)
	if cfg.MaxAgents <= 0 {
		cfg.MaxAgents = 1024
	}
	return &Deduper{window: w, maxAgents: cfg.MaxAgents, agents: map[string]*agentWindow{}}
}

// Mark records (agent, seq) and reports whether it was already seen.
// stale is set when the sequence is older than the window (also reported
// as a duplicate — it must not be re-counted).
func (d *Deduper) Mark(agent string, seq uint64) (dup, stale bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	aw := d.agents[agent]
	if aw == nil {
		if len(d.agents) >= d.maxAgents {
			d.evictOldest()
		}
		aw = &agentWindow{bits: make([]uint64, d.window/64)}
		d.agents[agent] = aw
	}
	d.clock++
	aw.touched = d.clock
	switch {
	case !aw.init:
		aw.init = true
		aw.maxSeq = seq
		aw.set(seq, d.window)
		return false, false
	case seq > aw.maxSeq:
		aw.advance(seq, d.window)
		aw.set(seq, d.window)
		return false, false
	case aw.maxSeq-seq >= d.window:
		return true, true
	case aw.get(seq, d.window):
		return true, false
	default:
		aw.set(seq, d.window)
		return false, false
	}
}

// Seen reports whether (agent, seq) is marked, without marking it. A
// sequence behind the window counts as seen, as Mark counts it.
func (d *Deduper) Seen(agent string, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	aw := d.agents[agent]
	switch {
	case aw == nil || !aw.init || seq > aw.maxSeq:
		return false
	case aw.maxSeq-seq >= d.window:
		return true
	}
	return aw.get(seq, d.window)
}

// Forget clears a mark set by Mark — the ingest path calls it when a
// batch was marked but then could not be enqueued (queue full, drain),
// so the agent's retry of the same sequence is accepted.
func (d *Deduper) Forget(agent string, seq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	aw := d.agents[agent]
	if aw == nil || !aw.init || seq > aw.maxSeq || aw.maxSeq-seq >= d.window {
		return
	}
	aw.bits[seq/64%(d.window/64)] &^= 1 << (seq % 64)
}

// DeduperState is the exact serializable image of a Deduper, part of the
// powserved crash-recovery snapshot. Restoring it preserves the dedup
// decisions, so replaying an already-marked (agent, seq) after recovery
// is rejected exactly as it would have been before the crash.
type DeduperState struct {
	Window    uint64            `json:"window"`
	MaxAgents int               `json:"max_agents"`
	Clock     uint64            `json:"clock"`
	Agents    []DedupAgentState `json:"agents"`
}

// DedupAgentState is one agent's sliding window.
type DedupAgentState struct {
	ID      string   `json:"id"`
	Init    bool     `json:"init"`
	MaxSeq  uint64   `json:"max_seq"`
	Bits    []uint64 `json:"bits"`
	Touched uint64   `json:"touched"`
}

// ExportState captures the dedup index, agents sorted by ID so identical
// indexes serialize identically.
func (d *Deduper) ExportState() *DeduperState {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &DeduperState{
		Window:    d.window,
		MaxAgents: d.maxAgents,
		Clock:     d.clock,
		Agents:    make([]DedupAgentState, 0, len(d.agents)),
	}
	for id, aw := range d.agents {
		st.Agents = append(st.Agents, DedupAgentState{
			ID: id, Init: aw.init, MaxSeq: aw.maxSeq,
			Bits: append([]uint64(nil), aw.bits...), Touched: aw.touched,
		})
	}
	sort.Slice(st.Agents, func(a, b int) bool { return st.Agents[a].ID < st.Agents[b].ID })
	return st
}

// InstallState replaces the dedup index with a captured one: what crash
// recovery loads into an empty index and a follower's bootstrap over a
// live one. There the snapshot's windows subsume whatever the local
// index knew — every (agent, seq) marked locally before the bootstrap is
// also marked in a snapshot taken at a later LSN — so swapping wholesale
// keeps redelivered batches counting as duplicates. The window must
// match the configured one (the bitmap layout is window-dependent and
// cannot be rescaled); a refused state leaves the index untouched.
func (d *Deduper) InstallState(st *DeduperState) error {
	if st.Window != d.window {
		return fmt.Errorf("tsdb: snapshot dedup window %d does not match configured window %d — start the server with serve.Config.DedupWindow = %d",
			st.Window, d.window, st.Window)
	}
	words := int(d.window / 64)
	agents := make(map[string]*agentWindow, len(st.Agents))
	for _, a := range st.Agents {
		if len(a.Bits) != words {
			return fmt.Errorf("tsdb: snapshot agent %q has %d bitmap words, window needs %d", a.ID, len(a.Bits), words)
		}
		agents[a.ID] = &agentWindow{
			init: a.Init, maxSeq: a.MaxSeq,
			bits: append([]uint64(nil), a.Bits...), touched: a.Touched,
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.agents, d.clock = agents, st.Clock
	return nil
}

func (d *Deduper) evictOldest() {
	var victim string
	oldest := ^uint64(0)
	for id, aw := range d.agents {
		if aw.touched < oldest {
			oldest = aw.touched
			victim = id
		}
	}
	delete(d.agents, victim)
}

func (aw *agentWindow) set(seq, window uint64) {
	aw.bits[seq/64%(window/64)] |= 1 << (seq % 64)
}

func (aw *agentWindow) get(seq, window uint64) bool {
	return aw.bits[seq/64%(window/64)]&(1<<(seq%64)) != 0
}

// advance slides the window forward to newMax, clearing the bits of the
// sequences that enter it.
func (aw *agentWindow) advance(newMax, window uint64) {
	if newMax-aw.maxSeq >= window {
		clear(aw.bits)
	} else {
		for s := aw.maxSeq + 1; s <= newMax; s++ {
			aw.bits[s/64%(window/64)] &^= 1 << (s % 64)
		}
	}
	aw.maxSeq = newMax
}
