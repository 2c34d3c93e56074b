package serve

// Replication wiring: every durable server is a replication-capable
// node. A primary serves its WAL as a CRC-framed stream
// (GET /v1/repl/stream), hands out bootstrap snapshots
// (GET /v1/repl/snapshot), and collects follower acknowledgements
// (POST /v1/repl/ack). A follower runs a pull loop (internal/repl)
// that feeds the stream through applyReplicated into the same ingest
// pipeline the live handler uses, so its analytics track the primary
// byte-for-byte, and serves read-only queries meanwhile.
//
// Failover is epoch-fenced: POST /v1/promote stops the pull loop and
// bumps the fsynced epoch past every epoch the primary ever reported.
// Shippers carry the highest epoch they have seen in X-Repl-Epoch, so
// the first write that reaches a stale primary fences it — it answers
// 409 with code "stale_epoch" from then on, and the shipper fails over.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower/internal/obs"
	"hpcpower/internal/repl"
	"hpcpower/internal/trace"
	"hpcpower/internal/wal"
)

// Replication roles.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// Replication headers. X-Repl-Epoch rides on every ingest and
// replication exchange in both directions — it is how fencing
// information propagates without a coordination service.
const (
	HeaderReplEpoch       = "X-Repl-Epoch"
	HeaderReplRole        = "X-Repl-Role"
	HeaderReplFenced      = "X-Repl-Fenced"
	HeaderReplSnapshotLSN = "X-Repl-Snapshot-LSN"
	// HeaderReplLease marks a 503 from a primary whose election lease
	// has lapsed ("expired"): it cannot safely ack, and the shipper
	// should try another node rather than wait in place.
	HeaderReplLease = "X-Repl-Lease"
)

// Machine-readable error codes carried in the JSON error body.
const (
	// CodeStaleEpoch: this node was a primary but a follower has been
	// promoted past it; it refuses writes permanently (409).
	CodeStaleEpoch = "stale_epoch"
	// CodeNotPrimary: this node is a read-only follower (503).
	CodeNotPrimary = "not_primary"
	// CodeBootstrapRequired: the requested stream position was reaped;
	// the follower must install a snapshot first (410).
	CodeBootstrapRequired = "bootstrap_required"
	// CodeNoLease: this node believes it is primary but its election
	// lease has lapsed — it cannot prove it has not been superseded, so
	// it refuses to ack until a quorum round renews the lease (503).
	CodeNoLease = "no_lease"
)

// ReplicationConfig configures a durable server's replication role.
// The zero value (and a nil pointer in DurabilityConfig) means a
// standalone primary — always streamable, never following. An elected
// node (StartElection) sets neither Role nor PrimaryURL.
type ReplicationConfig struct {
	// Role is RolePrimary (the default, also "") or RoleFollower.
	Role string
	// PrimaryURL is the primary's base URL, for RoleFollower only.
	PrimaryURL string
	// FollowerID names this follower in the primary's registry and reap
	// holds. Defaults to "follower".
	FollowerID string
	// SyncAck makes a primary acknowledge ingest (202) only after every
	// registered follower has durably applied the batch — semi-sync
	// replication: a promoted follower already holds everything the
	// shipper saw acked. With no follower registered there is no wait.
	SyncAck bool
	// SyncAckTimeout bounds the SyncAck wait. 0 means 5 s. On timeout
	// the batch is durable locally but unacknowledged (500), so the
	// shipper re-sends and the dedup index absorbs the retry.
	SyncAckTimeout time.Duration
	// HeartbeatEvery is the stream heartbeat cadence. 0 means 500 ms.
	HeartbeatEvery time.Duration
	// AckEvery is the follower acknowledgement cadence. 0 means 200 ms.
	AckEvery time.Duration
	// StallTimeout kills a follower's stream connection that delivers
	// nothing for this long (asymmetric partitions). 0 means 5 s.
	StallTimeout time.Duration
}

// Check refuses role settings that would quietly start a second
// primary: an unknown role, any role at all when elected, and a primary
// URL without RoleFollower (or RoleFollower without one). It reads no
// data dir, so a daemon checks its flags with it before locking one.
func (r ReplicationConfig) Check(elected bool) error {
	switch {
	case r.Role != "" && r.Role != RolePrimary && r.Role != RoleFollower:
		return fmt.Errorf("serve: unknown replication role %q (want %q or %q)", r.Role, RolePrimary, RoleFollower)
	case elected && r.Role != "":
		return fmt.Errorf("serve: an elected node takes its role from its epoch record, not from role %q", r.Role)
	case (r.Role == RoleFollower) != (r.PrimaryURL != ""):
		return fmt.Errorf("serve: role %q with primary URL %q: a follower needs one, any other node would run a second primary", r.Role, r.PrimaryURL)
	}
	return nil
}

func (c *ReplicationConfig) withDefaults() (ReplicationConfig, error) {
	var r ReplicationConfig
	if c != nil {
		r = *c
	}
	if err := r.Check(false); err != nil {
		return r, err
	}
	if r.FollowerID == "" {
		r.FollowerID = "follower"
	}
	if r.SyncAckTimeout <= 0 {
		r.SyncAckTimeout = 5 * time.Second
	}
	return r, nil
}

// replState is a durable server's replication state: role, fencing
// epoch, the stream source (serving followers when primary), and the
// pull loop (when follower).
type replState struct {
	cfg    ReplicationConfig
	epoch  *repl.EpochFile
	source *repl.Source

	mu       sync.Mutex
	follower *repl.Follower     // non-nil while the pull loop runs
	lastFS   repl.FollowerStats // survives follower.Stop (promotion)

	isFollower atomic.Bool
	fenced     atomic.Bool
	fencedBy   atomic.Uint64 // highest peer epoch that fenced us
	promotions atomic.Int64

	// hintMu guards the primary hint (best-known primary URL, served
	// in not_primary bodies) and the follower pull loop's live target.
	hintMu         sync.Mutex
	primaryHintURL string
	activeUpstream string

	// rejoining serializes the automatic-rejoin goroutine; rejoins feeds
	// /metrics.
	rejoining atomic.Bool
	rejoins   atomic.Int64

	// replApplied is the highest primary LSN durably applied locally
	// (follower side); reconnects resume just after it.
	replApplied atomic.Uint64

	// bootExtras are primary LSNs above the bootstrap snapshot's
	// watermark that the installed image already contains; the stream
	// will deliver them again and the apply path must skip them.
	bootMu     sync.Mutex
	bootExtras map[uint64]struct{}

	// streamStop ends every in-flight stream connection — closed before
	// graceful HTTP shutdown, which otherwise waits out the streams.
	streamStop chan struct{}
	streamOnce sync.Once

	// metrics receives each catch-up burst's record count and read time
	// (primary side); logger gets one record per role, epoch or stream
	// event. Both are set once by NewDurable before the server accepts
	// connections.
	metrics *metrics
	logger  *slog.Logger
}

func newReplState(cfg ReplicationConfig, ep *repl.EpochFile, d *durability) *replState {
	rs := &replState{
		cfg:        cfg,
		epoch:      ep,
		bootExtras: map[uint64]struct{}{},
		streamStop: make(chan struct{}),
		logger:     obs.Component(nil, "repl"),
	}
	rs.isFollower.Store(cfg.Role == RoleFollower)
	rs.primaryHintURL = cfg.PrimaryURL
	rs.source = repl.NewSource(repl.SourceConfig{
		Epoch: ep.Epoch,
		Read:  d.readForRepl,
		Hold: func(id string, lsn uint64) {
			if d.log != nil {
				d.log.SetReapHold(id, lsn)
			}
		},
		HeartbeatEvery: cfg.HeartbeatEvery,
		ObserveBurst: func(records int64, d time.Duration) {
			if records > 0 {
				rs.metrics.replSend.Observe(float64(records))
			}
			rs.metrics.stage(stageReplRead, d, obs.TraceEvent{})
		},
	})
	return rs
}

func (rs *replState) role() string {
	if rs.isFollower.Load() {
		return RoleFollower
	}
	return RolePrimary
}

// primaryHint is the best-known primary URL, included in not_primary
// error bodies so shippers re-route directly instead of probing.
func (rs *replState) primaryHint() string {
	rs.hintMu.Lock()
	defer rs.hintMu.Unlock()
	return rs.primaryHintURL
}

func (rs *replState) setPrimaryHint(url string) {
	if url == "" {
		return
	}
	rs.hintMu.Lock()
	rs.primaryHintURL = url
	rs.hintMu.Unlock()
}

// currentUpstream is the URL the pull loop is streaming from ("" when
// not following).
func (rs *replState) currentUpstream() string {
	rs.hintMu.Lock()
	defer rs.hintMu.Unlock()
	return rs.activeUpstream
}

// exchangeEpoch stamps this node's epoch on the response and folds the
// request's into the fencing state: a primary that sees a higher epoch
// than its own has been superseded by a promotion and fences itself —
// stickily, until it rejoins a successor or restarts from its epoch
// record.
func (rs *replState) exchangeEpoch(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(HeaderReplEpoch, strconv.FormatUint(rs.epoch.Epoch(), 10))
	v := r.Header.Get(HeaderReplEpoch)
	if v == "" {
		return
	}
	e, err := strconv.ParseUint(v, 10, 64)
	if err != nil || e <= rs.epoch.Epoch() {
		return
	}
	if rs.isFollower.Load() {
		return // a follower lagging the primary's epoch is normal
	}
	storeMax(&rs.fencedBy, e)
	if !rs.fenced.Swap(true) {
		rs.logger.Warn("fenced by a higher peer epoch: refusing writes",
			slog.Uint64("epoch", rs.epoch.Epoch()), slog.Uint64("peer_epoch", e))
	}
}

func (rs *replState) setBootExtras(extras []uint64) {
	m := make(map[uint64]struct{}, len(extras))
	for _, e := range extras {
		m[e] = struct{}{}
	}
	rs.bootMu.Lock()
	rs.bootExtras = m
	rs.bootMu.Unlock()
}

func (rs *replState) isBootExtra(plsn uint64) bool {
	rs.bootMu.Lock()
	defer rs.bootMu.Unlock()
	_, ok := rs.bootExtras[plsn]
	return ok
}

// bootExtraList returns the extras above lsn, sorted-free (callers
// only persist them).
func (rs *replState) bootExtraList(above uint64) []uint64 {
	rs.bootMu.Lock()
	defer rs.bootMu.Unlock()
	var out []uint64
	for e := range rs.bootExtras {
		if e > above {
			out = append(out, e)
		}
	}
	return out
}

// followerStats returns the pull loop's counters, falling back to the
// last snapshot taken before the loop was stopped by a promotion.
func (rs *replState) followerStats() repl.FollowerStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.follower != nil {
		rs.lastFS = rs.follower.Stats()
	}
	return rs.lastFS
}

// lagRecords is the readiness-facing replication lag: on a follower,
// records behind the primary's watermark; on a primary, records the
// slowest registered follower has yet to acknowledge.
func (rs *replState) lagRecords() uint64 {
	if rs.isFollower.Load() {
		return rs.followerStats().Lag
	}
	minA, n := rs.source.MinAcked()
	if n == 0 {
		return 0
	}
	if wm := rs.source.Watermark(); wm > minA {
		return wm - minA
	}
	return 0
}

// stopStreams ends every in-flight follower stream (graceful shutdown
// would wait them out); followers reconnect, here or to a successor.
func (rs *replState) stopStreams() {
	rs.streamOnce.Do(func() { close(rs.streamStop) })
}

// startFollowerTo wires and starts the pull loop against the serving
// layer's apply path and primaryURL — the rejoin path retargets a
// deposed primary at its successor the same way.
func (rs *replState) startFollowerTo(s *Server, primaryURL string) error {
	f, err := repl.StartFollower(repl.FollowerConfig{
		PrimaryURL:   primaryURL,
		ID:           rs.cfg.FollowerID,
		Epoch:        rs.epoch.Epoch,
		ObserveEpoch: rs.adoptEpoch,
		Applied:      rs.replApplied.Load,
		Apply:        s.applyReplicated,
		Bootstrap:    s.installReplSnapshot,
		AckEvery:     rs.cfg.AckEvery,
		StallTimeout: rs.cfg.StallTimeout,
		Logger:       s.cfg.Logger,
	})
	if err != nil {
		return err
	}
	rs.mu.Lock()
	rs.follower = f
	rs.mu.Unlock()
	rs.hintMu.Lock()
	rs.activeUpstream = primaryURL
	rs.primaryHintURL = primaryURL
	rs.hintMu.Unlock()
	return nil
}

// adoptEpoch is the pull loop's ObserveEpoch hook: it persists the
// primary's epoch and lifts the fence that epoch put on this node when
// it was a primary.
func (rs *replState) adoptEpoch(epoch uint64) error {
	if err := rs.epoch.Store(epoch); err != nil {
		return err
	}
	if epoch >= rs.fencedBy.Load() {
		rs.fenced.Store(false)
	}
	return nil
}

// stopFollower halts the pull loop (idempotent), keeping its final
// counters for /metrics.
func (rs *replState) stopFollower() {
	rs.mu.Lock()
	f := rs.follower
	if f != nil {
		rs.lastFS = f.Stats()
		rs.follower = nil
	}
	rs.mu.Unlock()
	if f != nil {
		f.Stop()
	}
	rs.hintMu.Lock()
	rs.activeUpstream = ""
	rs.hintMu.Unlock()
}

// Promote turns a follower into the primary: stop the pull loop, bump
// the fsynced epoch past every epoch the old primary ever reported,
// and start taking writes. Idempotent — promoting a primary returns
// its current epoch. The bumped epoch fences the old primary the
// moment a shipper carries it there. This is the operator path; it
// informs an attached elector so the election state tracks the manual
// promotion instead of campaigning against it.
func (s *Server) Promote() (epoch uint64, err error) {
	epoch, err = s.PromoteTo(0)
	if err != nil {
		return 0, err
	}
	if el := s.elector.Load(); el != nil {
		el.NoteLocalPromotion(epoch)
	}
	return epoch, nil
}

// PromoteTo promotes to exactly target — the election path: the
// elector won a quorum of votes for this precise epoch, so the data
// epoch must land on it (not one past it); 0 means one past the
// current epoch. Must NOT call back into the elector (it is invoked
// under the elector's lock).
func (s *Server) PromoteTo(target uint64) (epoch uint64, err error) {
	d := s.dur
	if d == nil {
		return 0, fmt.Errorf("serve: promotion requires a durable server")
	}
	if !s.ready.Load() {
		return 0, fmt.Errorf("serve: cannot promote before recovery completes")
	}
	rs := d.repl
	if !rs.isFollower.Load() {
		cur := rs.epoch.Epoch()
		if target <= cur {
			return cur, nil
		}
		// Already primary, promoted to a higher epoch (an elector
		// re-winning leadership after a lease lapse).
		if err := rs.epoch.Lead(target); err != nil {
			return 0, fmt.Errorf("serve: persisting promotion epoch %d: %w", target, err)
		}
		if target > rs.fencedBy.Load() {
			rs.fenced.Store(false)
		}
		rs.logger.Info("primary advanced its epoch", slog.Uint64("epoch", target))
		return target, nil
	}
	rs.stopFollower()
	next := rs.epoch.Epoch() + 1
	if target > next {
		next = target
	}
	if err := rs.epoch.Lead(next); err != nil {
		return 0, fmt.Errorf("serve: persisting promotion epoch %d: %w", next, err)
	}
	rs.isFollower.Store(false)
	if next > rs.fencedBy.Load() {
		rs.fenced.Store(false)
	}
	rs.promotions.Add(1)
	if s.anom != nil {
		// The promoted standby starts delivering alerts from exactly the
		// state the primary's snapshots left it in: firing alerts stay
		// deduplicated, mid-countdown conditions keep counting.
		s.anom.SetDeliver(true)
	}
	d.advanceRepl()
	rs.logger.Info("promoted to primary", slog.Uint64("epoch", next), slog.Uint64("applied_primary_lsn", rs.replApplied.Load()))
	return next, nil
}

// replGateIngest enforces role and fencing on the write path. It
// stamps X-Repl-Epoch on every response so shippers accumulate the
// highest epoch they have seen and carry it to other nodes.
func (s *Server) replGateIngest(w http.ResponseWriter, r *http.Request) bool {
	if s.dur == nil {
		return true
	}
	rs := s.dur.repl
	rs.exchangeEpoch(w, r)
	if rs.isFollower.Load() {
		s.refuse(w, http.StatusServiceUnavailable, CodeNotPrimary, 0, followerMsg)
		return false
	}
	if rs.fenced.Load() {
		s.refuse(w, http.StatusConflict, CodeStaleEpoch, 0,
			"write fenced: epoch %d is stale, a peer was promoted at epoch %d",
			rs.epoch.Epoch(), rs.fencedBy.Load())
		return false
	}
	// Under an elector a primary acks only with the lease: cut off from a
	// quorum it goes silent rather than ack what its successor lacks.
	return s.leaseHeld(w, 0)
}

// replReady answers the common replication-endpoint preconditions,
// writing the error response when they fail. Given a follower message it
// also answers whether this node may serve its history to a follower:
// never as a follower (refused with that message), and under an elector
// only with the lease for its own epoch — else it could hand out a
// history its successor replaced.
func (s *Server) replReady(w http.ResponseWriter, r *http.Request, followerMsg string) (*replState, bool) {
	if s.dur == nil {
		s.refuse(w, http.StatusNotImplemented, "", 0, "replication requires a durable server (-data-dir)")
		return nil, false
	}
	rs := s.dur.repl
	rs.exchangeEpoch(w, r)
	switch {
	case !s.ready.Load():
		s.refuse(w, http.StatusServiceUnavailable, "", 0, "server recovering")
		return nil, false
	case followerMsg == "":
		return rs, true
	case rs.isFollower.Load():
		s.refuse(w, http.StatusServiceUnavailable, CodeNotPrimary, 0, "%s", followerMsg)
		return nil, false
	}
	return rs, s.leaseHeld(w, rs.epoch.Epoch())
}

// leaseHeld reports whether an attached elector (if any) holds the lease
// at epoch (0: its own), writing the no_lease refusal when not.
func (s *Server) leaseHeld(w http.ResponseWriter, epoch uint64) bool {
	if el := s.elector.Load(); el == nil || el.HasLease() && (epoch == 0 || el.Status().Epoch == epoch) {
		return true
	}
	s.refuse(w, http.StatusServiceUnavailable, CodeNoLease, 0,
		"leader lease expired: cannot reach an election quorum — writes may be lost, try another node")
	return false
}

// handleReplStream serves one follower's stream connection. It is
// routed around the request-timeout wrapper: the connection is
// long-lived by design and needs http.Flusher, which
// http.TimeoutHandler does not provide.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	rs, ok := s.replReady(w, r, "cascading replication is not supported — stream from the primary")
	if !ok {
		return
	}
	id := r.URL.Query().Get("follower")
	if id == "" {
		s.refuse(w, http.StatusBadRequest, "", 0, "missing follower id")
		return
	}
	from := uint64(1)
	if v := r.URL.Query().Get("from"); v != "" {
		f, err := strconv.ParseUint(v, 10, 64)
		if err != nil || f == 0 {
			s.refuse(w, http.StatusBadRequest, "", 0, "bad from %q", v)
			return
		}
		from = f
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.refuse(w, http.StatusInternalServerError, "", 0, "response writer cannot stream")
		return
	}
	d := s.dur
	// Register before the oldest-LSN check: registration pins WAL
	// retention at from-1, so a reap between the check and the stream
	// cannot strand the follower.
	rs.source.Register(id, from-1)
	first, err := d.log.FirstLSN()
	if err != nil {
		s.refuse(w, http.StatusInternalServerError, "", 0, "oldest wal lsn: %v", err)
		return
	}
	if from < first {
		s.refuse(w, http.StatusGone, CodeBootstrapRequired, 0,
			"lsn %d was reaped (oldest is %d) — install a snapshot", from, first)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-rs.streamStop:
			cancel()
		case <-ctx.Done():
		}
	}()
	if err := rs.source.StreamTo(ctx, w, fl.Flush, from); err != nil && ctx.Err() == nil {
		rs.logger.Warn("stream to follower ended", slog.String("follower", id), slog.Any("err", err))
	}
}

// handleReplSnapshot takes a fresh snapshot and serves the payload it
// wrote — the follower-bootstrap payload, exactly the on-disk snapshot
// image, without reading the file back.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.replReady(w, r, "cascading replication is not supported — bootstrap from the primary"); !ok {
		return
	}
	lsn, payload, err := s.dur.snapshotOnce(s)
	if err != nil {
		s.refuse(w, http.StatusInternalServerError, "", 0, "taking snapshot: %v", err)
		return
	}
	w.Header().Set(HeaderReplSnapshotLSN, strconv.FormatUint(lsn, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// handleReplAck records a follower's durably-applied LSN, releasing
// WAL retention below it and unblocking semi-sync ingest waits.
func (s *Server) handleReplAck(w http.ResponseWriter, r *http.Request) {
	rs, ok := s.replReady(w, r, "")
	if !ok {
		return
	}
	id := r.URL.Query().Get("follower")
	lsn, err := strconv.ParseUint(r.URL.Query().Get("lsn"), 10, 64)
	if id == "" || err != nil {
		s.refuse(w, http.StatusBadRequest, "", 0, "ack needs follower and lsn")
		return
	}
	rs.source.Ack(id, lsn)
	w.WriteHeader(http.StatusNoContent)
}

// handlePromote is the operator-facing failover trigger (the smoke
// drill POSTs it after killing the primary; SIGUSR1 does the same).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.replReady(w, r, ""); !ok {
		return
	}
	epoch, err := s.Promote()
	if err != nil {
		s.refuse(w, http.StatusInternalServerError, "", 0, "promote: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"role": RolePrimary, "epoch": epoch})
}

// applyReplicated feeds one streamed record through the ingest
// pipeline (pipeline.go): stamp, so post-promotion redeliveries land as
// duplicates; log, stamped with the primary's LSN so reconnects resume
// exactly; apply, inline; and a durability wait — the pull loop only
// acks what would survive a follower crash.
func (s *Server) applyReplicated(plsn uint64, body []byte) error {
	start := time.Now()
	d := s.dur
	rs := d.repl
	if rs.isBootExtra(plsn) {
		// Already inside the installed bootstrap image: advance only.
		storeMax(&rs.replApplied, plsn)
		s.metrics.stage(stageReplApply, time.Since(start), obs.TraceEvent{})
		return nil
	}
	// Everything below that reads the samples finishes before this
	// function returns, whichever way it returns.
	sp := samplePool.Get().(*[]trace.PowerSample)
	defer samplePool.Put(sp)
	wb, canonical, err := s.scanWALBody(body, *sp)
	if err != nil {
		return fmt.Errorf("decoding replicated record %d: %w", plsn, err)
	}
	*sp = wb.Samples
	// A canonical record without a plsn (the primary ingested it) is
	// stored as it came, the plsn spliced in; anything else is encoded
	// afresh.
	var rec []byte
	if canonical && wb.PLSN == 0 {
		bp := bufPool.Get().(*[]byte)
		defer bufPool.Put(bp)
		*bp = trace.SpliceWALFields(append((*bp)[:0], body...), plsn, "")
		rec = *bp
	}
	qb := queuedBatch{WALRecord: wb}
	qb.PLSN = plsn
	d.applyMu.RLock()
	// Mirror the primary's dedup decisions; the stream delivers each
	// primary LSN at most once, so the stamp never gates the apply.
	s.stamp(qb.Agent, qb.Seq)
	if o := s.log(&qb, rec, false); o.kind != outAccepted {
		d.applyMu.RUnlock()
		return o.err
	}
	// The record's fsync runs beside the apply, as the primary's handler
	// waits for it beside the worker's; it is joined before the ack.
	durable := d.startDurable(qb.lsn)
	// The follower's engine tracks alert state in lockstep with the
	// primary (delivery stays gated off until promotion).
	err = s.apply(&qb)
	storeMax(&rs.replApplied, plsn)
	d.applyMu.RUnlock()
	if err != nil {
		return fmt.Errorf("store append: %w", err)
	}
	if err := <-durable; err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	d.advanceRepl()
	s.metrics.stage(stageReplApply, time.Since(start), obs.TraceEvent{
		Trace: qb.Trace, Agent: qb.Agent, Seq: int64(qb.Seq),
		LSN: int64(qb.lsn), PLSN: int64(plsn), Samples: len(qb.Samples), Status: "applied",
	})
	return nil
}

// installReplSnapshot is the follower's bootstrap path: replace the
// live store and dedup index with the primary's snapshot image, then
// persist a local snapshot immediately — the installed state exists
// nowhere in the local WAL, so a crash before the next scheduled
// snapshot would otherwise rewind the follower to its pre-bootstrap
// past. If anything fails, the local disk still holds the old
// consistent state and the bootstrap reruns after the reconnect.
//
// The image replaces everything this node logged, so the install first
// waits until each local LSN is applied or cancelled: a deposed
// primary's queued batch must not land on top of the image, and the
// local snapshot's frontier must cover the whole local log, or a
// restart would replay the straggler over the image.
func (s *Server) installReplSnapshot(plsn uint64, payload []byte) error {
	d := s.dur
	rs := d.repl
	img, err := decodeSnapshotImage(payload)
	if err != nil {
		return fmt.Errorf("decoding snapshot payload: %w", err)
	}
	d.applyMu.Lock()
	for last := d.log.LastLSN(); d.tracker.Load().frontierLSN() < last; last = d.log.LastLSN() {
		d.applyMu.Unlock()
		// The queue drains in far less; failing the install instead of
		// waiting forever lets the pull loop stop and retry.
		ctx, cancel := context.WithTimeout(context.TODO(), 5*time.Second)
		err := d.tracker.Load().wait(ctx, last)
		cancel()
		if err != nil {
			return fmt.Errorf("waiting for local lsn %d to apply: %w", last, err)
		}
		d.applyMu.Lock()
	}
	if err := s.install(img); err != nil {
		d.applyMu.Unlock()
		return err
	}
	rs.setBootExtras(img.Extras)
	// Not a max: after a primary of a later epoch, the old cursor may
	// count another node's LSNs.
	rs.replApplied.Store(img.AppliedLSN)
	d.applyMu.Unlock()
	if _, _, err := d.snapshotOnce(s); err != nil {
		return fmt.Errorf("persisting bootstrap snapshot: %w", err)
	}
	return nil
}

// readForRepl adapts the WAL's range scan to the stream source,
// filtering out the records the log reports cancelled (refused under
// backpressure — the agent re-sent them under a fresh LSN).
func (d *durability) readForRepl(from, to uint64, emit func(lsn uint64, body []byte) error) error {
	return d.log.ReadRange(from, to, func(lsn uint64, typ wal.RecordType, body []byte) error {
		if typ != wal.RecordData || d.log.Cancelled(lsn) {
			return nil
		}
		return emit(lsn, body)
	})
}

// advanceRepl publishes the streamable watermark: records both applied
// (tracker) and durable (fsynced — under SyncNone, merely written),
// so a follower can never ack state the primary might lose that the
// follower would not also lose. With SyncNone the operator has chosen
// to trade that guarantee for speed on both ends.
func (d *durability) advanceRepl() {
	rs := d.repl
	if d.log == nil || !d.recovered.Load() {
		return
	}
	wm := d.tracker.Load().frontierLSN()
	var durable uint64
	if d.cfg.Policy == wal.SyncNone {
		durable = d.log.LastLSN()
	} else {
		durable = d.log.SyncedLSN()
	}
	if durable < wm {
		wm = durable
	}
	rs.source.Advance(wm)
}

// advanceTick is the watermark-publication backstop cadence: the hot
// paths advance inline, the ticker covers interval-fsync stragglers.
const advanceTick = 100 * time.Millisecond

func (d *durability) advanceLoop() {
	defer d.wg.Done()
	t := time.NewTicker(advanceTick)
	defer t.Stop()
	for {
		select {
		case <-d.stopc:
			return
		case <-t.C:
			d.advanceRepl()
		}
	}
}

// collect emits the repl_* series into the registry's exposition.
func (rs *replState) collect(e *obs.Exposition) {
	e.Gauge("powserved_repl_epoch", float64(rs.epoch.Epoch()))
	e.Gauge("powserved_repl_role", float64(1-b2i(rs.isFollower.Load()))) // 1 = primary
	e.Gauge("powserved_repl_fenced", float64(b2i(rs.fenced.Load())))
	e.Gauge("powserved_repl_lag_records", float64(rs.lagRecords()))
	e.Gauge("powserved_repl_watermark", float64(rs.source.Watermark()))
	e.Counter("powserved_repl_promotions_total", float64(rs.promotions.Load()))
	e.Counter("powserved_repl_streamed_records_total", float64(rs.source.Streamed()))
	e.Counter("powserved_repl_rejoins_total", float64(rs.rejoins.Load()))

	fs := rs.followerStats()
	e.Gauge("powserved_repl_applied_lsn", float64(fs.AppliedLSN))
	e.Counter("powserved_repl_applied_records_total", float64(fs.AppliedRecords))
	e.Counter("powserved_repl_snapshot_installs_total", float64(fs.SnapshotInstalls))
	e.Counter("powserved_repl_reconnects_total", float64(fs.Reconnects))

	followers := rs.source.Followers()
	e.Gauge("powserved_repl_followers", float64(len(followers)))
	for _, f := range followers {
		e.GaugeL("powserved_repl_follower_acked_lsn", "follower", f.ID, float64(f.AckedLSN))
	}
}

// storeMax raises a to v if v is higher (monotonic atomic max).
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
