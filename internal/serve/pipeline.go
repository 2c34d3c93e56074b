package serve

// The ingest pipeline. Every sample powserved holds got there through
// the stages in this file — stamp → log → enqueue → apply → done, with
// cancel as the rollback and await as the ack gate — fed from three
// sources: the live handler (accept, then a worker), the follower's
// stream (applyReplicated: logs with the primary's LSN, applies inline)
// and WAL replay (Recover: nothing to log; the replay consumer goroutine
// is the sole writer of store, dedup index and alert engine until Recover
// joins it, before anything else can reach them). A memory-only server runs
// the same code with the WAL as a no-op: log assigns LSN 0, await has no
// fsync to wait for, and an enqueue ticket (ticketLog) stands in for the
// LSN a duplicate waits on.
//
// Locks are taken in the order applyMu(R) → seqMu → queue lock. This is
// the normative statement of the rules; DESIGN.md points here.
//
//  1. applyMu.RLock covers stamp → log → enqueue as one unit (and, on
//     the worker and the follower, apply with its markDone), so the
//     takers of the write lock — snapshot capture and a follower's
//     snapshot install — see store, dedup index and apply tracker at one
//     batch boundary. The read lock is never re-entered: with a writer
//     pending, a nested RLock waits behind the writer while the writer
//     waits for the outer one.
//  2. seqMu covers the WAL append together with the queue push, so LSN
//     order is queue order: replay applies records in LSN order, and
//     with one ingest worker that is the order the live server applied
//     them in. With more workers the two part by a batch per worker at
//     most, and the store's state depends on apply order only through
//     which samples are late (tsdb's job.go): recovery is byte-identical
//     while no batch reaches more than 2 minutes past another's for the
//     same job, and but for the trend within 16.
//  3. A cancelled LSN enters the tombstone set before it is marked done:
//     the replication stream is gated on the done watermark and must
//     see the cancellation first. The set lives in wal.Log, which adds
//     the LSN in AppendTombstone before writing the tombstone and
//     answers replay and the stream through Cancelled.
//  4. The queue's shed callback runs under the queue lock and must touch
//     neither applyMu nor seqMu — the handler that pushed the entry holds
//     both around Push. A snapshot cut between a shed and its tombstone
//     can at worst make replay re-apply a record nobody was acked for,
//     which dedup settles as the duplicate of the agent's retry.
//  5. Every fsync and replication wait happens outside all locks, and a
//     failed fsync never acks.
//  6. Without a WAL nothing is locked: a stamped batch takes its ticket
//     before its stamp, so a duplicate that finds the stamp finds its
//     original's ticket taken (awaitDuplicate).

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hpcpower/internal/admit"
	"hpcpower/internal/obs"
	"hpcpower/internal/trace"
)

// queuedBatch is one batch in flight through the pipeline: the record as
// the WAL holds it, the sequence number the WAL gave it (0 when there is
// no WAL) or else its enqueue ticket, and the channel the live handler
// waits on — true once applied, false when shed before apply, so a 202 is
// never written for samples that did not reach the store.
type queuedBatch struct {
	trace.WALRecord
	lsn    uint64
	ticket uint64    // memory-only: the ticketLog's number for it
	resc   chan bool // buffered(1); nil off the live path
}

// ticketLog is what a memory-only server keeps of its batches for
// awaitDuplicate: each stamped batch takes the next ticket, and done
// tracks the tickets applied, cancelled or settled as duplicates.
type ticketLog struct {
	last atomic.Uint64 // the newest ticket taken
	done *applyTracker
}

// markDone marks a ticket done; 0, an unstamped or logged batch's, is
// none.
func (tl *ticketLog) markDone(ticket uint64) {
	if ticket != 0 {
		tl.done.markDone(ticket)
	}
}

// outcomeKind is what became of an ingest request's batch past the
// gates. From outShed on each is a refusal, with a row in refusals.
type outcomeKind uint8

const (
	outAccepted    outcomeKind = iota
	outDuplicate               // (agent, seq) already counted
	outStale                   // a duplicate older than the dedup window
	outShed                    // CoDel shed it after enqueue
	outFull                    // queue at capacity
	outDraining                // Push lost the race with Close
	outStorage                 // storage degraded, or WAL append or fsync failed
	outReplication             // durable here, no follower ack in time
	outNotPrimary              // demoted while the batch was in flight
	outEncode                  // the WAL record could not be encoded
	outMemory                  // over the memory watermark, shed unread
	outInvalid                 // undecodable, empty or invalid batch
	outAgentRate               // the agent's token bucket is empty
	outLimiter                 // no slot left under the AIMD limit
	numOutcomes
)

// outcome is accept's by-value answer. held means the batch is still
// queued: a worker or the shed callback may yet read its samples. lsn is
// an accepted batch's; err is a refusal's cause, worded for the client;
// retry is outAgentRate's hint.
type outcome struct {
	kind  outcomeKind
	held  bool
	lsn   uint64
	err   error
	retry time.Duration
}

// stamp marks (agent, seq) as counted and reports whether it already
// was; an unstamped batch is never a duplicate.
func (s *Server) stamp(agent string, seq uint64) (dup, stale bool) {
	if agent == "" {
		return false, false
	}
	return s.dedup.Mark(agent, seq)
}

// log appends qb's record to the WAL, setting qb.lsn, and — for a live
// batch — pushes qb onto the ingest queue inside the same seqMu hold.
// rec is that record as the sender spelled it (trace.SpliceWALFields),
// logged as it stands; nil has log encode it. The caller holds
// applyMu.RLock and cancels qb on any answer but outAccepted.
func (s *Server) log(qb *queuedBatch, rec []byte, enqueue bool) outcome {
	d := s.dur
	var pushErr error
	if d == nil {
		if enqueue {
			pushErr = s.ingestQ.Push(*qb)
		}
	} else {
		if rec == nil {
			bp := bufPool.Get().(*[]byte)
			var err error
			if *bp, err = trace.AppendWALRecord((*bp)[:0], &qb.WALRecord); err != nil {
				bufPool.Put(bp)
				return outcome{kind: outEncode, err: fmt.Errorf("encoding wal record: %w", err)}
			}
			rec = *bp
			defer bufPool.Put(bp) // Append copies the record into its own frame
		}
		d.seqMu.Lock()
		var err error
		qb.lsn, err = d.log.Append(rec)
		if err == nil && enqueue {
			pushErr = s.ingestQ.Push(*qb)
		}
		d.seqMu.Unlock()
		if err != nil {
			// A failing WAL (transient ENOSPC/EIO or a poisoned log) is
			// storage trouble, not a client error: the shipper spills and
			// comes back, exactly like backpressure.
			return outcome{kind: outStorage, err: fmt.Errorf("wal append: %w", err)}
		}
	}
	switch {
	case pushErr == nil:
		if d != nil {
			d.appendsSinceSnap.Add(1)
		}
		return outcome{kind: outAccepted, lsn: qb.lsn}
	case errors.Is(pushErr, admit.ErrFull):
		return outcome{kind: outFull}
	default:
		return outcome{kind: outDraining}
	}
}

// cancel withdraws a batch that was stamped, and perhaps logged, but will
// never be applied: a tombstone cancels the record so neither replay nor
// the replication stream resurrects it, and the sequence number is freed
// for the agent's retry. It runs under applyMu.RLock from accept and
// under the queue lock from the shed callback, and takes no lock but the
// log's.
func (s *Server) cancel(qb *queuedBatch) {
	d := s.dur
	logged := d != nil && qb.lsn != 0
	var tlsn uint64
	if logged {
		// The log counts the LSN cancelled before it writes the
		// tombstone, so a failed write still keeps it out of the stream.
		if l, err := d.log.AppendTombstone(qb.lsn); err == nil {
			tlsn = l
		}
	}
	// Freed before the LSN is done: a duplicate waiting for this LSN
	// (awaitDuplicate) reads the mark to tell a cancelled original from an
	// applied one.
	if qb.Agent != "" {
		s.dedup.Forget(qb.Agent, qb.Seq)
	}
	switch {
	case logged:
		tr := d.tracker.Load()
		tr.markDone(tlsn)
		tr.markDone(qb.lsn)
	case d == nil:
		s.tickets.markDone(qb.ticket)
	}
}

// onIngestShed is the CoDel queue's shed callback: cancel the entry and
// release the waiting handler with "not applied". The handler counts the
// refusal.
func (s *Server) onIngestShed(qb queuedBatch) {
	s.cancel(&qb)
	if qb.resc != nil {
		qb.resc <- false
	}
}

// fold is the store half of apply, and all of it for WAL replay, which
// has no LSN to mark (Recover installs the frontier wholesale) and
// reports through its RecoveryReport. Detector time is sample-driven, so
// every source reproduces the same alert decisions, and a batch keeps its
// trace ID on any transition it triggers.
func (s *Server) fold(samples []trace.PowerSample, traceID string) error {
	err := s.store.Append(samples)
	if err == nil && s.anom != nil {
		s.anom.ObserveBatch(samples, traceID)
	}
	return err
}

// apply folds one logged batch into the store and marks its LSN done.
// The caller holds applyMu.RLock when there is a WAL, so a snapshot never
// records an LSN as applied while its samples are half-folded, and the
// engine-state cut lands on the same batch boundary as the store's.
// Batches are validated before they are logged: an error here is a
// programming error, and the LSN is done all the same.
func (s *Server) apply(qb *queuedBatch) error {
	err := s.fold(qb.Samples, qb.Trace)
	if d := s.dur; d != nil {
		d.tracker.Load().markDone(qb.lsn)
	} else {
		s.tickets.markDone(qb.ticket)
	}
	if err == nil {
		s.metrics.samplesIngested.Add(int64(len(qb.Samples)))
	}
	return err
}

func (s *Server) ingestWorker() {
	defer s.workerWG.Done()
	for {
		qb, ok := s.ingestQ.Pop()
		if !ok {
			return
		}
		d := s.dur
		if d != nil {
			d.applyMu.RLock()
		}
		start := time.Now()
		err := s.apply(&qb)
		if d != nil {
			d.applyMu.RUnlock()
			// Applied; if it is also fsynced this makes the record
			// streamable to followers right away.
			d.advanceRepl()
		}
		if err != nil {
			s.metrics.refused[outInvalid].Inc()
		} else {
			s.metrics.stage(stageApply, time.Since(start), obs.TraceEvent{
				Trace: qb.Trace, LSN: int64(qb.lsn), Samples: len(qb.Samples), Status: "applied",
			})
		}
		if qb.resc != nil {
			qb.resc <- true
		}
	}
}

// await holds the ack until it is true: the record fsynced, the batch
// applied and, under semi-sync replication, durably applied by every
// registered follower (no follower, no wait). No lock is held.
func (s *Server) await(ctx context.Context, qb *queuedBatch) outcome {
	d := s.dur
	if d != nil {
		if err := d.log.WaitDurable(qb.lsn); err != nil {
			// Fsyncgate: the fsync covering this LSN failed, so the record's
			// durability is unknowable and the WAL has sealed itself. Never
			// ack. The 503 makes the agent re-send; the batch stays queued
			// and will be applied, and the dedup mark turns the retry into a
			// counted-once duplicate once a restarted node can make it
			// durable.
			return outcome{kind: outStorage, held: true, err: fmt.Errorf("wal sync: %w", err)}
		}
	}
	if !<-qb.resc {
		return outcome{kind: outShed}
	}
	return s.awaitReplicated(ctx, qb.lsn)
}

// awaitReplicated is await's last gate: under semi-sync replication a
// primary acks lsn only once every registered follower has durably
// applied it, and a node demoted meanwhile never acks it — the leader it
// now follows does not have it.
func (s *Server) awaitReplicated(ctx context.Context, lsn uint64) outcome {
	d := s.dur
	if d == nil {
		return outcome{kind: outAccepted, lsn: lsn}
	}
	if d.repl.cfg.SyncAck && !d.repl.isFollower.Load() {
		// The record is fsynced, so publishing the watermark inline starts
		// the stream hop now instead of on the next tick.
		d.advanceRepl()
		ctx, stop := context.WithTimeout(ctx, d.repl.cfg.SyncAckTimeout)
		err := d.repl.source.WaitReplicated(ctx, lsn)
		stop()
		if err != nil {
			// Durable locally but not replicated: refuse the ack so the
			// shipper re-sends; the retry is a duplicate, acked once a
			// follower holds the record (awaitDuplicate).
			return outcome{kind: outReplication, err: fmt.Errorf("replication ack: %w", err)}
		}
	}
	if d.repl.isFollower.Load() {
		return outcome{kind: outNotPrimary}
	}
	return outcome{kind: outAccepted, lsn: lsn}
}

// awaitDuplicate holds a duplicate's ack to what its original's needs:
// applied, durable and, under semi-sync replication, replicated. A retry
// usually follows an ack that timed out, so the original may still be
// queued, or not on the follower, and acking the retry then would let a
// shed or a failover lose the batch. The last ticket taken covers the
// original (rule 6); with a WAL, taking applyMu's write lock waits out a
// stamp → log in flight, so the last LSN does. Once that is durable and
// the apply tracker's watermark reaches it, the original was applied or
// cancelled, and a cancel freed its (agent, seq): the duplicate then gets
// the shed's 429 and the agent's next retry is logged afresh.
func (s *Server) awaitDuplicate(ctx context.Context, agent string, seq uint64) outcome {
	done, last := s.tickets.done, s.tickets.last.Load()
	if d := s.dur; d != nil {
		d.applyMu.Lock()
		last = d.log.LastLSN()
		d.applyMu.Unlock()
		if err := d.log.WaitDurable(last); err != nil {
			return outcome{kind: outStorage, err: fmt.Errorf("wal sync: %w", err)}
		}
		done = d.tracker.Load()
	}
	if done.wait(ctx, last) != nil || !s.dedup.Seen(agent, seq) {
		return outcome{kind: outShed}
	}
	if o := s.awaitReplicated(ctx, last); o.kind != outAccepted {
		return o
	}
	return outcome{kind: outDuplicate}
}

// accept takes one validated batch from the live handler through the
// pipeline and answers what became of it. rec, unless nil, holds the
// batch's WAL record as its request body spelled it: it is logged as it
// stands and goes back to bufPool once logged, before the ack.
func (s *Server) accept(ctx context.Context, batch *trace.SampleBatch, rec *[]byte, traceID string) outcome {
	qb := queuedBatch{WALRecord: trace.WALRecord{
		Agent: batch.AgentID, Seq: batch.Seq, Samples: batch.Samples, Trace: traceID,
	}}
	var raw []byte
	if rec != nil {
		raw = *rec
	}
	o := s.enter(&qb, raw)
	if rec != nil {
		bufPool.Put(rec) // Append copied the record into its own frame
	}
	switch {
	case o.kind == outDuplicate:
		return s.awaitDuplicate(ctx, qb.Agent, qb.Seq)
	case o.kind != outAccepted:
		return o
	}
	return s.await(ctx, &qb)
}

// enter is accept's stamp → log, under applyMu.RLock when there is a
// WAL; rec is log's.
func (s *Server) enter(qb *queuedBatch, rec []byte) outcome {
	if d := s.dur; d != nil {
		d.applyMu.RLock()
		defer d.applyMu.RUnlock()
		// The role gate ran before the body was read: a demotion since
		// then refuses here, before anything is stamped or logged, and a
		// snapshot install taking the write lock sees no batch after it.
		if d.repl.isFollower.Load() {
			return outcome{kind: outNotPrimary}
		}
	} else if qb.Agent != "" {
		qb.ticket = s.tickets.last.Add(1) // before the stamp: rule 6
	}
	// Stamp before enqueue so two racing deliveries of the same
	// (agent, seq) cannot both be counted.
	if dup, stale := s.stamp(qb.Agent, qb.Seq); dup || stale {
		// Its ticket is done at once, so a duplicate never waits for
		// itself.
		s.tickets.markDone(qb.ticket)
		if stale {
			return outcome{kind: outStale}
		}
		return outcome{kind: outDuplicate}
	}
	qb.resc = make(chan bool, 1)
	o := s.log(qb, rec, true)
	if o.kind != outAccepted {
		s.cancel(qb)
	}
	return o
}
