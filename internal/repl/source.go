package repl

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// SourceConfig wires a Source to the serving layer's log and epoch
// state through callbacks.
type SourceConfig struct {
	// Epoch returns the primary's current fencing epoch.
	Epoch func() uint64
	// Read streams the durable, non-tombstoned data records with
	// from ≤ LSN ≤ to, in order, to emit. It is only called with `to`
	// at or below the watermark passed to Advance.
	Read func(from, to uint64, emit func(lsn uint64, body []byte) error) error
	// Hold pins WAL records above lsn against reaping on behalf of the
	// follower id (wal.SetReapHold). May be nil.
	Hold func(id string, lsn uint64)
	// HeartbeatEvery is the idle heartbeat cadence. 0 means 500 ms.
	HeartbeatEvery time.Duration
	// ObserveBurst, if set, receives each catch-up burst's record count
	// and the wall time of its Read call (WAL range read plus frame
	// writes). It runs on the stream loop; keep it cheap.
	ObserveBurst func(records int64, d time.Duration)
}

// FollowerState is one registered follower's replication progress.
type FollowerState struct {
	ID       string
	AckedLSN uint64
	LastAck  time.Time
	Streams  int64 // stream connections served for this follower
}

// Source is the primary-side replication state: the durable watermark
// followers may read up to, the registry of followers and their
// acknowledged LSNs, and the stream loop that serves one follower
// connection. All methods are safe for concurrent use.
type Source struct {
	cfg SourceConfig

	mu        sync.Mutex
	watermark uint64
	followers map[string]*FollowerState
	advanceCh chan struct{} // closed and replaced on every Advance
	ackCh     chan struct{} // closed and replaced on every Ack

	streamed int64 // data frames written across all connections
}

// NewSource returns a Source with no followers and a zero watermark.
func NewSource(cfg SourceConfig) *Source {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	return &Source{
		cfg:       cfg,
		followers: make(map[string]*FollowerState),
		advanceCh: make(chan struct{}),
		ackCh:     make(chan struct{}),
	}
}

// Advance publishes a new durable watermark: every record with
// LSN ≤ lsn is applied and fsynced on the primary, so streaming it to a
// follower can never hand out state the primary might lose.
func (s *Source) Advance(lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn <= s.watermark {
		return
	}
	s.watermark = lsn
	close(s.advanceCh)
	s.advanceCh = make(chan struct{})
}

// Watermark returns the highest streamable LSN.
func (s *Source) Watermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// Register adds a follower (idempotent) and pins WAL retention at its
// acknowledged LSN, so segments it still needs are not reaped. ackFloor
// seeds the acknowledged LSN for a follower resuming mid-log.
func (s *Source) Register(id string, ackFloor uint64) {
	s.mu.Lock()
	f, ok := s.followers[id]
	if !ok {
		f = &FollowerState{ID: id}
		s.followers[id] = f
	}
	if ackFloor > f.AckedLSN {
		f.AckedLSN = ackFloor
	}
	f.LastAck = time.Now()
	f.Streams++
	acked := f.AckedLSN
	s.mu.Unlock()
	if s.cfg.Hold != nil {
		s.cfg.Hold(id, acked)
	}
	s.broadcastAck()
}

// Ack records that follower id has durably applied every record up to
// lsn, releases WAL retention below it, and wakes WaitReplicated.
func (s *Source) Ack(id string, lsn uint64) {
	s.mu.Lock()
	f, ok := s.followers[id]
	if !ok {
		f = &FollowerState{ID: id}
		s.followers[id] = f
	}
	if lsn > f.AckedLSN {
		f.AckedLSN = lsn
	}
	f.LastAck = time.Now()
	acked := f.AckedLSN
	s.mu.Unlock()
	if s.cfg.Hold != nil {
		s.cfg.Hold(id, acked)
	}
	s.broadcastAck()
}

func (s *Source) broadcastAck() {
	s.mu.Lock()
	close(s.ackCh)
	s.ackCh = make(chan struct{})
	s.mu.Unlock()
}

// Followers returns a snapshot of the registry.
func (s *Source) Followers() []FollowerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FollowerState, 0, len(s.followers))
	for _, f := range s.followers {
		out = append(out, *f)
	}
	return out
}

// MinAcked returns the lowest acknowledged LSN across registered
// followers and the follower count (0 followers → lsn 0).
func (s *Source) MinAcked() (uint64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var minA uint64
	first := true
	for _, f := range s.followers {
		if first || f.AckedLSN < minA {
			minA = f.AckedLSN
			first = false
		}
	}
	if first {
		return 0, 0
	}
	return minA, len(s.followers)
}

// Streamed returns the total data frames written across all stream
// connections.
func (s *Source) Streamed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streamed
}

// WaitReplicated blocks until every registered follower has
// acknowledged lsn, the context ends, or — when no follower is
// registered — immediately. This is the semi-synchronous ack mode: a
// primary that waits here before acknowledging an ingest batch
// guarantees a promoted follower already holds it.
func (s *Source) WaitReplicated(ctx context.Context, lsn uint64) error {
	for {
		s.mu.Lock()
		ch := s.ackCh
		pending := 0
		for _, f := range s.followers {
			if f.AckedLSN < lsn {
				pending++
			}
		}
		s.mu.Unlock()
		if pending == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("repl: waiting for %d follower(s) to ack lsn %d: %w", pending, lsn, ctx.Err())
		case <-ch:
		}
	}
}

// StreamTo serves one follower connection: the stream header, a catch-up
// of durable records from `from`, then an interleave of fresh records
// and heartbeats until ctx ends or the connection fails. flush pushes
// buffered bytes to the network (http.Flusher); it may be nil.
//
// The caller has already validated `from` against the log's oldest LSN
// (snapshot bootstrap handles the reaped case) and registered the
// follower, so every record the loop needs stays readable.
func (s *Source) StreamTo(ctx context.Context, w io.Writer, flush func(), from uint64) error {
	if from == 0 {
		from = 1
	}
	buf := AppendHeader(nil, s.cfg.Epoch(), from)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if flush != nil {
		flush()
	}

	ticker := time.NewTicker(s.cfg.HeartbeatEvery)
	defer ticker.Stop()
	next := from
	for {
		s.mu.Lock()
		hi := s.watermark
		advance := s.advanceCh
		s.mu.Unlock()

		if hi >= next {
			sent := int64(0)
			start := time.Now()
			err := s.cfg.Read(next, hi, func(lsn uint64, body []byte) error {
				buf = AppendFrame(buf[:0], FrameData, lsn, body)
				if _, err := w.Write(buf); err != nil {
					return err
				}
				sent++
				return nil
			})
			if s.cfg.ObserveBurst != nil {
				s.cfg.ObserveBurst(sent, time.Since(start))
			}
			s.mu.Lock()
			s.streamed += sent
			s.mu.Unlock()
			if err != nil {
				return err
			}
			next = hi + 1
		}

		// Heartbeat after every catch-up and on the idle ticker: the
		// follower always learns the watermark it is measured against.
		buf = AppendFrame(buf[:0], FrameHeartbeat, hi, HeartbeatBody(hi, s.cfg.Epoch()))
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if flush != nil {
			flush()
		}

		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		case <-advance:
		}
	}
}
