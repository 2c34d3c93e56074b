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
	"encoding/json"
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

	// upstreamAtPromote is the highest upstream LSN this node had
	// durably applied when it was (last) promoted — the divergence
	// point it serves at /v1/repl/frontier so a deposed primary knows
	// where to truncate its WAL. Seeded at Recover for a node that
	// boots primary after having followed.
	upstreamAtPromote atomic.Uint64

	// hintMu guards the primary hint (best-known primary URL, served
	// in not_primary bodies) and the follower pull loop's live target.
	hintMu         sync.Mutex
	primaryHintURL string
	activeUpstream string

	// rejoining serializes the automatic-rejoin goroutine; rejoins and
	// divergedRecords feed /metrics.
	rejoining       atomic.Bool
	rejoins         atomic.Int64
	divergedRecords atomic.Int64

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

	// onSend and onRead receive each catch-up burst's record count and
	// read time (primary side); logger gets one record per role, epoch or
	// stream event. All three are set once by NewDurable before the server
	// accepts connections.
	onSend func(records int64)
	onRead func(time.Duration)
	logger *slog.Logger
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
		ObserveSend: func(records int64) {
			if rs.onSend != nil {
				rs.onSend(records)
			}
		},
		ObserveRead: func(d time.Duration) {
			if rs.onRead != nil {
				rs.onRead(d)
			}
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

// notPrimary writes the role header and a not_primary JSON error that
// carries the primary hint when one is known.
func (rs *replState) notPrimary(w http.ResponseWriter, msg string) {
	w.Header().Set(HeaderReplRole, RoleFollower)
	body := map[string]string{"error": msg, "code": CodeNotPrimary}
	if hint := rs.primaryHint(); hint != "" {
		body["primary"] = hint
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(body)
}

// observeRequestEpoch folds a peer-reported epoch into the fencing
// state: a primary that sees a higher epoch than its own has been
// superseded by a promotion and fences itself — stickily, until
// it rejoins a successor or restarts from its epoch record.
func (rs *replState) observeRequestEpoch(r *http.Request) {
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
// deposed primary at its successor, with forceBootstrap set so the
// first connect installs a snapshot instead of extending a diverged
// timeline.
func (rs *replState) startFollowerTo(s *Server, primaryURL string, forceBootstrap bool) error {
	f, err := repl.StartFollower(repl.FollowerConfig{
		PrimaryURL:     primaryURL,
		ID:             rs.cfg.FollowerID,
		Epoch:          rs.epoch.Epoch,
		ObserveEpoch:   rs.epoch.Store,
		Applied:        rs.replApplied.Load,
		Apply:          s.applyReplicated,
		Bootstrap:      s.installReplSnapshot,
		ForceBootstrap: forceBootstrap,
		AckEvery:       rs.cfg.AckEvery,
		StallTimeout:   rs.cfg.StallTimeout,
		Logger:         s.cfg.Logger,
		ObserveApply:   s.metrics.replApply.ObserveDuration,
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
	if d == nil || d.repl == nil {
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
	// The upstream frontier freezes at promotion: everything this node
	// applied from its old primary up to here is shared history; its own
	// writes beyond are a new timeline. The deposed primary reads this
	// back via /v1/repl/frontier to find its truncation point.
	rs.upstreamAtPromote.Store(rs.replApplied.Load())
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
	if s.dur == nil || s.dur.repl == nil {
		return true
	}
	rs := s.dur.repl
	rs.observeRequestEpoch(r)
	w.Header().Set(HeaderReplEpoch, strconv.FormatUint(rs.epoch.Epoch(), 10))
	if rs.isFollower.Load() {
		rs.notPrimary(w, "this node is a read-only follower — send writes to the primary")
		return false
	}
	if rs.fenced.Load() {
		w.Header().Set(HeaderReplFenced, "1")
		errJSONCode(w, http.StatusConflict, CodeStaleEpoch,
			"write fenced: epoch %d is stale, a peer was promoted at epoch %d",
			rs.epoch.Epoch(), rs.fencedBy.Load())
		return false
	}
	// Under an elector a primary acks only with the lease: cut off from a
	// quorum it goes silent rather than ack what its successor lacks.
	return s.leaseHeld(w, 0)
}

// replReady answers the common replication-endpoint preconditions,
// writing the error response when they fail.
func (s *Server) replReady(w http.ResponseWriter, r *http.Request) (*replState, bool) {
	if s.dur == nil || s.dur.repl == nil {
		errJSON(w, http.StatusNotImplemented, "replication requires a durable server (-data-dir)")
		return nil, false
	}
	rs := s.dur.repl
	rs.observeRequestEpoch(r)
	w.Header().Set(HeaderReplEpoch, strconv.FormatUint(rs.epoch.Epoch(), 10))
	if !s.ready.Load() {
		errJSON(w, http.StatusServiceUnavailable, "server recovering")
		return nil, false
	}
	return rs, true
}

// replServes answers whether this node may serve its history to a
// follower, writing the refusal if not: never as a follower, and under
// an elector only with the lease for its own epoch — else it could hand
// out a history its successor replaced.
func (s *Server) replServes(w http.ResponseWriter, rs *replState, followerMsg string) bool {
	if rs.isFollower.Load() {
		rs.notPrimary(w, followerMsg)
		return false
	}
	return s.leaseHeld(w, rs.epoch.Epoch())
}

// leaseHeld reports whether an attached elector (if any) holds the lease
// at epoch (0: its own), writing the no_lease refusal when not.
func (s *Server) leaseHeld(w http.ResponseWriter, epoch uint64) bool {
	if el := s.elector.Load(); el == nil || el.HasLease() && (epoch == 0 || el.Status().Epoch == epoch) {
		return true
	}
	w.Header().Set(HeaderReplLease, "expired")
	errJSONCode(w, http.StatusServiceUnavailable, CodeNoLease,
		"leader lease expired: cannot reach an election quorum — writes may be lost, try another node")
	return false
}

// handleReplStream serves one follower's stream connection. It is
// routed around the request-timeout wrapper: the connection is
// long-lived by design and needs http.Flusher, which
// http.TimeoutHandler does not provide.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	rs, ok := s.replReady(w, r)
	if !ok {
		return
	}
	if !s.replServes(w, rs, "cascading replication is not supported — stream from the primary") {
		return
	}
	id := r.URL.Query().Get("follower")
	if id == "" {
		errJSON(w, http.StatusBadRequest, "missing follower id")
		return
	}
	from := uint64(1)
	if v := r.URL.Query().Get("from"); v != "" {
		f, err := strconv.ParseUint(v, 10, 64)
		if err != nil || f == 0 {
			errJSON(w, http.StatusBadRequest, "bad from %q", v)
			return
		}
		from = f
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		errJSON(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	d := s.dur
	// Register before the oldest-LSN check: registration pins WAL
	// retention at from-1, so a reap between the check and the stream
	// cannot strand the follower.
	rs.source.Register(id, from-1)
	first, err := d.log.FirstLSN()
	if err != nil {
		errJSON(w, http.StatusInternalServerError, "oldest wal lsn: %v", err)
		return
	}
	if from < first {
		errJSONCode(w, http.StatusGone, CodeBootstrapRequired,
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
	rs, ok := s.replReady(w, r)
	if !ok {
		return
	}
	if !s.replServes(w, rs, "cascading replication is not supported — bootstrap from the primary") {
		return
	}
	lsn, payload, err := s.dur.snapshotOnce(s)
	if err != nil {
		errJSON(w, http.StatusInternalServerError, "taking snapshot: %v", err)
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
	rs, ok := s.replReady(w, r)
	if !ok {
		return
	}
	id := r.URL.Query().Get("follower")
	lsn, err := strconv.ParseUint(r.URL.Query().Get("lsn"), 10, 64)
	if id == "" || err != nil {
		errJSON(w, http.StatusBadRequest, "ack needs follower and lsn")
		return
	}
	rs.source.Ack(id, lsn)
	w.WriteHeader(http.StatusNoContent)
}

// handlePromote is the operator-facing failover trigger (the smoke
// drill POSTs it after killing the primary; SIGUSR1 does the same).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.replReady(w, r); !ok {
		return
	}
	epoch, err := s.Promote()
	if err != nil {
		errJSON(w, http.StatusInternalServerError, "promote: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"role": RolePrimary, "epoch": epoch})
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
		return nil
	}
	// Everything below that reads the samples finishes before this
	// function returns, whichever way it returns.
	sp := samplePool.Get().(*[]trace.PowerSample)
	defer samplePool.Put(sp)
	wb, err := s.decodeWALBody(body, *sp)
	if err != nil {
		return fmt.Errorf("decoding replicated record %d: %w", plsn, err)
	}
	*sp = wb.Samples
	qb := queuedBatch{WALRecord: wb}
	qb.PLSN = plsn
	d.applyMu.RLock()
	// Mirror the primary's dedup decisions; the stream delivers each
	// primary LSN at most once, so the stamp never gates the apply.
	s.stamp(qb.Agent, qb.Seq)
	if o := s.log(&qb, false); o.kind != outAccepted {
		d.applyMu.RUnlock()
		return o.err
	}
	// The follower's engine tracks alert state in lockstep with the
	// primary (delivery stays gated off until promotion).
	err = s.apply(&qb)
	storeMax(&rs.replApplied, plsn)
	d.applyMu.RUnlock()
	if err != nil {
		return fmt.Errorf("store append: %w", err)
	}
	if err := d.log.WaitDurable(qb.lsn); err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	d.advanceRepl()
	// The repl.Follower's ObserveApply hook feeds the replApply histogram.
	s.traceStage("replicated batch applied", obs.TraceEvent{
		Trace: qb.Trace, Stage: "repl_apply", Agent: qb.Agent, Seq: int64(qb.Seq),
		LSN: int64(qb.lsn), PLSN: int64(plsn), Samples: len(qb.Samples), Status: "applied",
	}, time.Since(start))
	return nil
}

// installReplSnapshot is the follower's bootstrap path: replace the
// live store and dedup index with the primary's snapshot image, then
// persist a local snapshot immediately — the installed state exists
// nowhere in the local WAL, so a crash before the next scheduled
// snapshot would otherwise rewind the follower to its pre-bootstrap
// past. If anything fails, the local disk still holds the old
// consistent state and the bootstrap reruns after the reconnect.
func (s *Server) installReplSnapshot(plsn uint64, payload []byte) error {
	d := s.dur
	rs := d.repl
	img, legacy, err := decodeSnapshotImage(payload)
	if err != nil {
		return fmt.Errorf("decoding snapshot payload: %w", err)
	}
	if legacy {
		s.metrics.legacySnapshots.Inc()
		rs.logger.Warn("bootstrap payload is a JSON snapshot image: the primary predates the binary format", slog.Uint64("lsn", plsn))
	}
	d.applyMu.Lock()
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
// filtering out tombstoned records (cancelled by backpressure — the
// agent re-sent them under a fresh LSN).
func (d *durability) readForRepl(from, to uint64, emit func(lsn uint64, body []byte) error) error {
	return d.log.ReadRange(from, to, func(lsn uint64, typ wal.RecordType, body []byte) error {
		if typ != wal.RecordData {
			return nil
		}
		d.tombMu.Lock()
		_, dead := d.tombstoned[lsn]
		d.tombMu.Unlock()
		if dead {
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
	if rs == nil || d.log == nil || !d.recovered.Load() {
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
	e.Counter("powserved_elect_diverged_records", float64(rs.divergedRecords.Load()))

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

// errJSONCode writes a JSON error body carrying a machine-readable
// code alongside the human-readable message.
func errJSONCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...), "code": code})
}
