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
//     deposed primary stops acking and follows it like any other node;
//     the leader's later epoch makes the pull loop install its snapshot
//     first (repl.Follower).

import (
	"context"
	"fmt"
	"log/slog"

	"hpcpower/internal/elect"
)

// StartElection attaches an elector to this server and runs it until
// ctx ends. The caller provides the group topology (ID, URL, Peers,
// cadence, State, Transport); the boot state (Lead) and the data-plane
// callbacks — Epoch, PromoteTo, LeaderChanged, Frontier — are wired
// here. It runs between NewDurable and Recover, on a server with no
// role set: the node boots from its epoch record, the primary of the
// epoch it led (lease pending a quorum round) or else a follower with
// no upstream. The elector refuses promotion until recovery completes.
func (s *Server) StartElection(ctx context.Context, cfg elect.Config) (*elect.Elector, error) {
	d := s.dur
	if d == nil {
		return nil, fmt.Errorf("serve: election requires a durable, replication-capable server")
	}
	if d.recovered.Load() {
		return nil, fmt.Errorf("serve: StartElection must run before Recover: the boot role comes from the epoch record")
	}
	rs := d.repl
	if err := rs.cfg.Check(true); err != nil {
		return nil, err
	}
	_, led := rs.epoch.State()
	rs.isFollower.Store(!led)
	cfg.Lead = led
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
// never take over from a dead primary). The epoch record says which
// LSN space it counts in. A node that followed its epoch reports the
// upstream LSN it durably applied. One that led it reports its own: with
// registered followers their min acked LSN — semi-sync acks waited for
// all of them, so released ≤ minAcked ≤ each follower's applied — and
// with none the local apply frontier, since vacuous semi-sync acks live
// on this node alone, exactly the history the vote check protects.
func (d *durability) commitFrontier() uint64 {
	if !d.recovered.Load() {
		return 0
	}
	rs := d.repl
	if epoch, led := rs.epoch.State(); epoch > 0 && !led {
		return rs.replApplied.Load()
	}
	local := d.tracker.Load().frontierLSN()
	if min, n := rs.source.MinAcked(); n > 0 && min < local {
		return min
	}
	return local
}

// maybeRejoin is the elector's LeaderChanged hook: some other node
// leads at epoch. It re-fires every election tick while that holds, so
// it must be cheap, idempotent, and must retry a failed rejoin — the
// CAS on rejoining gives all three.
func (s *Server) maybeRejoin(epoch uint64, leaderID, leaderURL string) {
	d := s.dur
	if d == nil || !s.ready.Load() {
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
// replication group as its follower, the way any node follows: stop
// acking (isFollower flips first), silence alert delivery, stop any old
// pull loop and start one against the leader. repl.Follower's epoch rule
// does the rest: a leader of a later epoch than ours has its snapshot
// installed, and only then is its epoch adopted. Until the image is
// installed and persisted the epoch record still says this node led its
// epoch, so a crash or a second rejoin derives the same bootstrap from
// disk. A primary demoted while the record says so counts as a rejoin.
func (s *Server) rejoin(epoch uint64, leaderID, leaderURL string) error {
	rs := s.dur.repl
	demoted := !rs.isFollower.Swap(true)
	if s.anom != nil {
		// Back to silent tracking: the new leader owns alert delivery.
		s.anom.SetDeliver(false)
	}
	rs.stopFollower()
	if _, led := rs.epoch.State(); led && demoted {
		rs.rejoins.Add(1)
		rs.logger.Warn("deposed: rejoining as follower", slog.String("leader", leaderID),
			slog.String("leader_url", leaderURL), slog.Uint64("epoch", epoch))
	}
	return rs.startFollowerTo(s, leaderURL)
}
