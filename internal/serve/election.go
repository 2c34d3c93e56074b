package serve

// Election wiring: an optional elect.Elector rides on a durable,
// replication-capable server and closes the failover loop without an
// operator. The elector owns failure detection and witness-quorum
// voting (internal/elect); this file owns the consequences on the
// data plane:
//
//   - promotion: a won election calls PromoteTo(epoch), landing the
//     data epoch exactly on the election epoch so fencing and voting
//     share one number space;
//   - the lease gate: replGateIngest refuses acks while the lease is
//     lapsed (see replication.go), so a partitioned primary goes
//     silent instead of acking writes its successor will not have;
//   - automatic rejoin: when the elector reports a foreign leader, a
//     deposed primary negotiates the divergence point via
//     GET /v1/repl/frontier, truncates its WAL back to it, and
//     re-enters the group as a follower with a forced snapshot
//     bootstrap.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hpcpower/internal/elect"
	"hpcpower/internal/repl"
)

// StartElection attaches an elector to this server and runs it until
// ctx ends. The caller provides the group topology (ID, URL, Peers,
// Lead, cadence, State, Transport); the data-plane callbacks — Epoch,
// PromoteTo, LeaderChanged, Frontier — are wired here and must be left
// nil.
// Requires a durable server (NewDurable + Recover not yet necessary:
// the elector refuses promotion until recovery completes).
func (s *Server) StartElection(ctx context.Context, cfg elect.Config) (*elect.Elector, error) {
	d := s.dur
	if d == nil || d.repl == nil {
		return nil, fmt.Errorf("serve: election requires a durable, replication-capable server")
	}
	rs := d.repl
	cfg.Epoch = rs.epoch.Epoch
	cfg.PromoteTo = func(epoch uint64) error {
		_, err := s.PromoteTo(epoch)
		return err
	}
	cfg.LeaderChanged = s.maybeRejoin
	cfg.Frontier = func() (uint64, uint64) {
		return rs.epoch.Epoch(), d.commitFrontier()
	}
	if cfg.Logger == nil {
		cfg.Logger = s.cfg.Logger
	}
	el, err := elect.New(cfg)
	if err != nil {
		return nil, err
	}
	s.elector.Store(el)
	s.mux.Handle("/v1/elect/", elect.Handler(el))
	go el.Run(ctx)
	return el, nil
}

// commitFrontier is the LSN line campaigns and heartbeats advertise so
// voters can refuse stale candidates. It must sit between two bounds:
// at or above every ingest ack released to clients (safety — anything
// below could be elected away and lost), and at or below what a valid
// successor is guaranteed to hold (liveness — or the standby could
// never take over from a dead primary). For a follower that line is the
// upstream LSN it durably applied. For a primary with registered
// followers it is their min acked LSN: semi-sync acks waited for all of
// them, so released ≤ minAcked ≤ each follower's applied. With no
// follower registered the local apply frontier stands — vacuous
// semi-sync acks live on this node alone, which is exactly the history
// the vote check exists to protect.
func (d *durability) commitFrontier() uint64 {
	if !d.recovered.Load() {
		return 0
	}
	rs := d.repl
	if rs == nil {
		return d.tracker.Load().frontierLSN()
	}
	if rs.isFollower.Load() {
		return rs.replApplied.Load()
	}
	local := d.tracker.Load().frontierLSN()
	if min, n := rs.source.MinAcked(); n > 0 && min < local {
		return min
	}
	return local
}

// handleReplFrontier serves this node's replication frontier — the
// negotiation endpoint a deposed primary hits to learn where shared
// history ends (see repl.Frontier).
func (s *Server) handleReplFrontier(w http.ResponseWriter, r *http.Request) {
	rs, ok := s.replReady(w, r)
	if !ok {
		return
	}
	d := s.dur
	var local uint64
	if d.recovered.Load() {
		local = d.tracker.Load().frontierLSN()
	}
	writeJSON(w, http.StatusOK, repl.Frontier{
		ID:          rs.cfg.FollowerID,
		Epoch:       rs.epoch.Epoch(),
		Role:        rs.role(),
		UpstreamLSN: rs.upstreamAtPromote.Load(),
		LocalLSN:    local,
	})
}

// maybeRejoin is the elector's LeaderChanged hook: some other node
// leads at epoch. It re-fires every election tick while that holds, so
// it must be cheap, idempotent, and must retry a failed rejoin — the
// CAS on rejoining gives all three.
func (s *Server) maybeRejoin(epoch uint64, leaderID, leaderURL string) {
	d := s.dur
	if d == nil || d.repl == nil || !s.ready.Load() {
		return
	}
	rs := d.repl
	rs.setPrimaryHint(leaderURL)
	if rs.isFollower.Load() && rs.currentUpstream() == leaderURL {
		return // already following the right node
	}
	if epoch < rs.epoch.Epoch() {
		return // stale notification from a slow tick
	}
	if !rs.rejoining.CompareAndSwap(false, true) {
		return // a rejoin is already in flight
	}
	go func() {
		defer rs.rejoining.Store(false)
		if err := s.rejoin(epoch, leaderID, leaderURL); err != nil {
			rs.logger.Warn("rejoin failed", slog.String("leader", leaderID), slog.String("leader_url", leaderURL), slog.Any("err", err))
		}
	}()
}

// rejoin demotes this node under a foreign leader and re-enters the
// replication group as its follower:
//
//  1. stop acking (isFollower flips first) and stop any old pull loop;
//  2. fetch the leader's frontier — its UpstreamLSN is the last LSN of
//     ours it had applied when it was promoted, i.e. the end of shared
//     history in our own LSN space;
//  3. under the apply lock, truncate our WAL back to that point (the
//     suffix was never replicated — those are the diverged records the
//     powserved_elect_diverged_records counter reports), reset the
//     apply tracker, and adopt the leader's epoch;
//  4. restart the pull loop against the leader with a forced snapshot
//     bootstrap — applied-beyond-frontier state cannot be un-applied
//     record-by-record, only a snapshot install yields a store the
//     stream can extend.
//
// Over-truncation is safe (the bootstrap reinstalls everything), as is
// skipping: the tracker watermark and dedup absorb replays. A node that
// was already a follower (retargeting to a new leader) skips the
// truncation — its WAL is its own timeline and recovery gates replay on
// the snapshot frontier.
func (s *Server) rejoin(epoch uint64, leaderID, leaderURL string) error {
	d := s.dur
	rs := d.repl
	wasPrimary := !rs.isFollower.Swap(true)
	if s.anom != nil {
		// Back to silent tracking: the new leader owns alert delivery.
		s.anom.SetDeliver(false)
	}
	rs.stopFollower()
	if wasPrimary {
		rs.logger.Warn("deposed: negotiating rejoin", slog.String("leader", leaderID), slog.Uint64("epoch", epoch))
		// Best-effort queue drain: accepted-but-unapplied batches hold
		// WAL LSNs the truncation may remove; the gate above stops new
		// ones and this wait lets stragglers clear before the cut.
		for i := 0; i < 50 && s.ingestQ.Len() > 0; i++ {
			time.Sleep(10 * time.Millisecond)
		}
	}
	fr, err := fetchFrontier(leaderURL, rs.epoch.Epoch())
	if err != nil {
		return fmt.Errorf("fetching frontier: %w", err)
	}
	if fr.Role != RolePrimary {
		return fmt.Errorf("leader %q reports role %q — not rejoining", leaderID, fr.Role)
	}
	target := epoch
	if fr.Epoch > target {
		target = fr.Epoch
	}
	d.applyMu.Lock()
	if wasPrimary {
		dropped, err := d.log.TruncateTo(fr.UpstreamLSN)
		if err != nil {
			d.applyMu.Unlock()
			return fmt.Errorf("truncating diverged wal suffix at %d: %w", fr.UpstreamLSN, err)
		}
		if dropped > 0 {
			rs.divergedRecords.Add(int64(dropped))
			rs.logger.Warn("rolled back diverged records", slog.Int("records", dropped), slog.Uint64("past_lsn", fr.UpstreamLSN))
		}
		d.tracker.Store(newApplyTracker(d.log.LastLSN()))
	}
	// The new leader's LSN space is not ours: restart the pull cursor
	// from zero and let the forced bootstrap set the real floor.
	rs.replApplied.Store(0)
	rs.setBootExtras(nil)
	if err := rs.epoch.Store(target); err != nil {
		d.applyMu.Unlock()
		return fmt.Errorf("adopting epoch %d: %w", target, err)
	}
	rs.fenced.Store(false)
	d.applyMu.Unlock()
	rs.rejoins.Add(1)
	rs.logger.Info("rejoining as follower", slog.String("leader", leaderID), slog.String("leader_url", leaderURL),
		slog.Uint64("epoch", target), slog.Uint64("shared_history_lsn", fr.UpstreamLSN))
	return rs.startFollowerTo(s, leaderURL, true)
}

// frontierClient is the rejoin negotiation's HTTP client; the frontier
// endpoint is a point read, so a short timeout keeps a dead leader
// from pinning the rejoin loop.
var frontierClient = &http.Client{Timeout: 5 * time.Second}

// fetchFrontier GETs base's /v1/repl/frontier, carrying our epoch so
// fencing gossip keeps flowing even on the rejoin path.
func fetchFrontier(base string, epoch uint64) (repl.Frontier, error) {
	req, err := http.NewRequest(http.MethodGet, strings.TrimRight(base, "/")+"/v1/repl/frontier", nil)
	if err != nil {
		return repl.Frontier{}, err
	}
	req.Header.Set(HeaderReplEpoch, strconv.FormatUint(epoch, 10))
	resp, err := frontierClient.Do(req)
	if err != nil {
		return repl.Frontier{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8192))
	if err != nil {
		return repl.Frontier{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return repl.Frontier{}, fmt.Errorf("frontier: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return repl.DecodeFrontier(data)
}
