package elect

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"hpcpower/internal/obs"
)

// Clock abstracts time so tests can skew, freeze, and jump it. Safety
// never depends on it: a wrong clock can delay an election or expire a
// lease early, but can never mint a second leader for an epoch.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }

// Transport carries election RPCs to a peer. Implementations must be
// safe for concurrent use.
type Transport interface {
	Heartbeat(ctx context.Context, url string, req HeartbeatRequest) (HeartbeatResponse, error)
	RequestVote(ctx context.Context, url string, req VoteRequest) (VoteResponse, error)
}

// Peer is one other member of the election group.
type Peer struct {
	ID      string
	URL     string
	Witness bool
}

// Config wires an Elector to its group and to the serving layer.
type Config struct {
	// ID and URL identify this node; URL is the advertised address
	// peers and the shipper should use to reach it.
	ID  string
	URL string
	// Peers are the other members (typically one data node + one
	// witness for a 3-node group).
	Peers []Peer
	// Witness marks a vote-only member: it answers heartbeats and
	// votes but never campaigns and never leads.
	Witness bool
	// Lead says this node's own history records winning its data epoch,
	// Epoch(), which no other node can then hold. Unless it promised a
	// later epoch since, it boots leading Epoch() with the lease invalid
	// until one quorum heartbeat round, so a deposed primary restarting
	// discovers the new leader instead of acking at the stale epoch.
	Lead bool

	// HeartbeatEvery is the leader heartbeat / tick cadence. 0 means
	// 250 ms. A quorum round keeps the lease alive for four of them, and
	// a follower that hears no leader for as long campaigns.
	HeartbeatEvery time.Duration

	State     *StateFile
	Clock     Clock
	Transport Transport
	// Rand yields jitter in [0,1) for election timeouts. Nil means
	// math/rand.
	Rand func() float64
	// Logger receives one record per state change, refused vote and
	// failed persist, under component "elect". nil discards.
	Logger *slog.Logger

	// Epoch returns the local data epoch (nil on a witness). The
	// campaign epoch is max(promised, Epoch())+1 so election epochs
	// and data-fencing epochs share one space.
	Epoch func() uint64
	// Frontier returns this node's committed data frontier — the
	// highest (epoch, LSN) it has released ingest acks through (as
	// primary) or durably applied from its upstream (as follower).
	// Campaign vote requests and leader heartbeats carry it, and every
	// voter refuses candidates behind the highest frontier it has seen,
	// so a restarted stale node can never win an election and roll back
	// acked records. Nil (witness, or pre-frontier callers) means
	// "report zero", which makes the check vacuous when no member
	// reports one.
	Frontier func() (epoch, lsn uint64)
	// PromoteTo promotes the local node to primary at exactly epoch.
	// An error aborts the takeover (the epoch stays burned). Nil on a
	// witness.
	PromoteTo func(epoch uint64) error
	// LeaderChanged reports that some other node leads at epoch. It is
	// re-invoked every tick while the fact stands, so it must be cheap
	// and idempotent — the serving layer uses it to self-demote a
	// deposed primary and to (re)target a follower's upstream.
	LeaderChanged func(epoch uint64, leaderID, leaderURL string)
}

// Status is a point-in-time view of the election state for /readyz.
type Status struct {
	Role             string    `json:"role"`
	ID               string    `json:"id"`
	LeaderID         string    `json:"leader_id"`
	LeaderURL        string    `json:"leader_url"`
	Epoch            uint64    `json:"epoch"`
	FrontierEpoch    uint64    `json:"frontier_epoch"`
	FrontierLSN      uint64    `json:"frontier_lsn"`
	HasLease         bool      `json:"has_lease"`
	LeaseRemainingMS int64     `json:"lease_remaining_ms"`
	WitnessOK        bool      `json:"witness_ok"`
	LastTransition   string    `json:"last_transition"`
	LastTransitionAt time.Time `json:"-"`
}

// Elector runs failure detection and leader election for one node. All
// exported methods are safe for concurrent use.
type Elector struct {
	cfg    Config
	logger *slog.Logger

	mu          sync.Mutex
	isLeader    bool
	myEpoch     uint64 // epoch this node leads at (leader only)
	leaderID    string
	leaderURL   string
	leaderEpoch uint64
	leaseUntil  time.Time
	witnessOK   bool
	reason      string
	reasonAt    time.Time

	stop   chan struct{}
	done   chan struct{}
	closed bool
}

// New validates cfg and returns an Elector. Run or Tick drives it.
func New(cfg Config) (*Elector, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("elect: missing ID")
	}
	if cfg.State == nil {
		return nil, fmt.Errorf("elect: missing State")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("elect: missing Transport")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	if !cfg.Witness && (cfg.Epoch == nil || cfg.PromoteTo == nil) {
		return nil, fmt.Errorf("elect: data node needs Epoch and PromoteTo")
	}
	e := &Elector{
		cfg:    cfg,
		logger: obs.Component(cfg.Logger, "elect").With(slog.String("id", cfg.ID)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	now := cfg.Clock.Now()
	e.reasonAt = now
	switch {
	case cfg.Witness:
		e.reason = "witness"
	case cfg.Lead && cfg.State.Promised() <= cfg.Epoch():
		// Lead the epoch this node won, lease expired until a quorum
		// round. A promise past it went to a later campaign, perhaps
		// another node's, so its own ack would count toward a quorum it
		// left: such a node boots a follower and campaigns if need be.
		e.isLeader = true
		e.myEpoch = cfg.Epoch()
		e.leaderID, e.leaderURL, e.leaderEpoch = cfg.ID, cfg.URL, e.myEpoch
		e.reason = fmt.Sprintf("boot as leader of epoch %d (lease pending quorum)", e.myEpoch)
	default:
		// Follower: give an existing leader a full timeout to be heard
		// before campaigning.
		e.leaseUntil = now.Add(e.electionTimeout())
		e.reason = "boot as follower"
	}
	return e, nil
}

// leaseTTL is how long a quorum round keeps the lease alive.
func (e *Elector) leaseTTL() time.Duration { return 4 * e.cfg.HeartbeatEvery }

// electionTimeout returns the lease TTL plus jitter so two followers do
// not campaign in lockstep.
func (e *Elector) electionTimeout() time.Duration {
	return e.leaseTTL() + time.Duration(float64(e.leaseTTL())*e.cfg.Rand())
}

func (e *Elector) quorum() int { return (len(e.cfg.Peers)+1)/2 + 1 }

// localFrontier reports this node's own committed data frontier, or
// zero when none is wired (witness).
func (e *Elector) localFrontier() (epoch, lsn uint64) {
	if e.cfg.Frontier == nil {
		return 0, 0
	}
	return e.cfg.Frontier()
}

// knownFrontier is the highest committed frontier this node can attest
// to: the max of its own data and everything leaders have reported in
// heartbeats (persisted, so it survives a voter restart). Votes are
// refused below this line. Caller holds mu.
func (e *Elector) knownFrontier() (epoch, lsn uint64) {
	epoch, lsn = e.cfg.State.MaxFrontier()
	if le, ll := e.localFrontier(); frontierLess(epoch, lsn, le, ll) {
		epoch, lsn = le, ll
	}
	return epoch, lsn
}

// HasLease reports whether this node currently leads with a live
// lease — the gate the serving layer checks before acking writes.
func (e *Elector) HasLease() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.isLeader && e.cfg.Clock.Now().Before(e.leaseUntil)
}

// IsLeader reports whether this node believes it leads (lease or not).
func (e *Elector) IsLeader() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.isLeader
}

// Status returns the current election state for /readyz.
func (e *Elector) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.cfg.Clock.Now()
	st := Status{
		ID:               e.cfg.ID,
		LeaderID:         e.leaderID,
		LeaderURL:        e.leaderURL,
		Epoch:            e.cfg.State.Promised(),
		WitnessOK:        e.witnessOK,
		LastTransition:   e.reason,
		LastTransitionAt: e.reasonAt,
	}
	st.FrontierEpoch, st.FrontierLSN = e.knownFrontier()
	switch {
	case e.cfg.Witness:
		st.Role = "witness"
	case e.isLeader:
		st.Role = "leader"
		st.Epoch = e.myEpoch
		if now.Before(e.leaseUntil) {
			st.HasLease = true
			st.LeaseRemainingMS = e.leaseUntil.Sub(now).Milliseconds()
		}
	default:
		st.Role = "follower"
	}
	return st
}

// NoteLocalPromotion records an out-of-band promotion (the manual
// POST /v1/promote path) so the elector leads at that epoch instead of
// campaigning against its own node. The lease is granted provisionally;
// the next quorum round confirms or revokes it.
func (e *Elector) NoteLocalPromotion(epoch uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.cfg.State.Store(epoch); err != nil {
		e.persistFailed("promotion epoch", epoch, err)
	}
	e.isLeader = true
	e.myEpoch = epoch
	e.leaderID, e.leaderURL, e.leaderEpoch = e.cfg.ID, e.cfg.URL, epoch
	e.leaseUntil = e.cfg.Clock.Now().Add(e.leaseTTL())
	e.transition(fmt.Sprintf("manual promotion at epoch %d", epoch))
}

// persistFailed logs a promise the state file did not take: the epoch
// stays unpromised on disk, and the caller backs off.
func (e *Elector) persistFailed(what string, epoch uint64, err error) {
	e.logger.Error("persisting "+what+" failed", slog.Uint64("epoch", epoch), slog.Any("err", err))
}

// transition records a state-change reason. Caller holds mu.
func (e *Elector) transition(reason string) {
	e.reason = reason
	e.reasonAt = e.cfg.Clock.Now()
	e.logger.Info("election state changed", slog.String("reason", reason))
}

// becomeFollower steps down. Caller holds mu.
func (e *Elector) becomeFollower(reason string) {
	e.isLeader = false
	e.myEpoch = 0
	e.leaseUntil = e.cfg.Clock.Now().Add(e.electionTimeout())
	e.transition(reason)
}

// Run ticks the elector every HeartbeatEvery until ctx ends or Close.
func (e *Elector) Run(ctx context.Context) {
	defer close(e.done)
	t := time.NewTicker(e.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-e.stop:
			return
		case <-t.C:
			e.Tick(ctx)
		}
	}
}

// Close stops Run and waits for the in-flight tick to finish.
func (e *Elector) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stop)
	<-e.done
}

// Tick advances the state machine one step: leaders heartbeat for
// lease renewal, followers watch for silence and campaign. Exported so
// tests drive it with a fake clock instead of the Run loop.
func (e *Elector) Tick(ctx context.Context) {
	if e.cfg.Witness {
		return
	}
	e.mu.Lock()
	leader := e.isLeader
	e.mu.Unlock()
	if leader {
		e.heartbeatRound(ctx)
	} else {
		e.followerTick(ctx)
	}
	e.notifyLeaderChange()
}

// notifyLeaderChange re-reports a foreign leader to the serving layer.
// It fires every tick while the fact stands (LeaderChanged must be
// idempotent), so a failed rejoin is retried for free.
func (e *Elector) notifyLeaderChange() {
	if e.cfg.LeaderChanged == nil {
		return
	}
	e.mu.Lock()
	notify := !e.isLeader && e.leaderID != "" && e.leaderID != e.cfg.ID && e.leaderURL != ""
	epoch, id, url := e.leaderEpoch, e.leaderID, e.leaderURL
	e.mu.Unlock()
	if notify {
		e.cfg.LeaderChanged(epoch, id, url)
	}
}

// heartbeatRound sends one heartbeat to every peer and renews the
// lease on a quorum of acks at our epoch. Any response carrying a
// higher epoch deposes us.
func (e *Elector) heartbeatRound(ctx context.Context) {
	e.mu.Lock()
	epoch := e.myEpoch
	if e.cfg.Epoch != nil {
		// The data epoch is authoritative (a manual promote may have
		// advanced it).
		if de := e.cfg.Epoch(); de > epoch {
			epoch = de
			e.myEpoch = de
		}
	}
	fe, fl := e.localFrontier()
	req := HeartbeatRequest{From: e.cfg.ID, URL: e.cfg.URL, Epoch: epoch, FrontierEpoch: fe, FrontierLSN: fl}
	peers := e.cfg.Peers
	e.mu.Unlock()

	type result struct {
		peer Peer
		resp HeartbeatResponse
		err  error
	}
	results := make(chan result, len(peers))
	rpcCtx, cancel := context.WithTimeout(ctx, e.cfg.HeartbeatEvery)
	defer cancel()
	for _, p := range peers {
		go func(p Peer) {
			resp, err := e.cfg.Transport.Heartbeat(rpcCtx, p.URL, req)
			results <- result{peer: p, resp: resp, err: err}
		}(p)
	}

	acks := 1 // self
	witnessSeen, witnessOK := false, false
	var deposedBy *HeartbeatResponse
	for range peers {
		r := <-results
		if r.peer.Witness {
			witnessSeen = true
		}
		if r.err != nil {
			continue
		}
		if r.peer.Witness {
			witnessOK = true
		}
		if r.resp.OK && r.resp.Epoch == epoch {
			acks++
		} else if r.resp.Epoch > epoch {
			resp := r.resp
			deposedBy = &resp
		} else if !r.resp.OK && r.resp.Epoch == epoch && r.resp.LeaderID != "" && r.resp.LeaderID != e.cfg.ID {
			// Same epoch, different owner: a restarted ex-primary whose
			// epoch file was advanced during a prior rejoin boots at the
			// incumbent's exact epoch. Its claim is refused but nothing is
			// numerically higher, so without this it would stall as a
			// leaderless leader forever.
			resp := r.resp
			deposedBy = &resp
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if witnessSeen {
		e.witnessOK = witnessOK
	}
	if !e.isLeader || e.myEpoch != epoch {
		return // deposed concurrently by a handler
	}
	if deposedBy != nil {
		if err := e.cfg.State.Store(deposedBy.Epoch); err != nil {
			e.persistFailed("higher epoch", deposedBy.Epoch, err)
		}
		e.leaderEpoch = deposedBy.Epoch
		e.leaderID = deposedBy.LeaderID
		e.leaderURL = deposedBy.LeaderURL
		e.becomeFollower(fmt.Sprintf("deposed: epoch %d supersedes our %d (leader %q)", deposedBy.Epoch, epoch, deposedBy.LeaderID))
		return
	}
	if acks >= e.quorum() {
		e.leaseUntil = e.cfg.Clock.Now().Add(e.leaseTTL())
	} else if !e.cfg.Clock.Now().Before(e.leaseUntil) && e.reason != "lease lost: no quorum" {
		e.transition("lease lost: no quorum")
	}
}

// followerTick campaigns when no leader has been heard for a full
// election timeout.
func (e *Elector) followerTick(ctx context.Context) {
	e.mu.Lock()
	now := e.cfg.Clock.Now()
	if now.Before(e.leaseUntil) {
		e.mu.Unlock()
		return
	}
	// Don't campaign while our own data is known-stale: the group's
	// acked frontier (learned from leader heartbeats, persisted) reaches
	// past what we hold, so voters would refuse us anyway. Back off
	// without burning an epoch and wait to catch up via the stream — or
	// for the data-holder to return and win.
	le, ll := e.localFrontier()
	if fe, fl := e.cfg.State.MaxFrontier(); frontierLess(le, ll, fe, fl) {
		e.leaseUntil = now.Add(e.electionTimeout())
		reason := fmt.Sprintf("not campaigning: local frontier %d/%d behind group's %d/%d", le, ll, fe, fl)
		if e.reason != reason {
			e.transition(reason)
		}
		e.mu.Unlock()
		return
	}
	// Campaign: promise the next epoch to ourselves — durably, before
	// any vote request leaves the node.
	epoch := e.cfg.State.Promised()
	if de := e.cfg.Epoch(); de > epoch {
		epoch = de
	}
	epoch++
	if err := e.cfg.State.Store(epoch); err != nil {
		e.persistFailed("campaign epoch", epoch, err)
		e.leaseUntil = now.Add(e.electionTimeout())
		e.mu.Unlock()
		return
	}
	req := VoteRequest{From: e.cfg.ID, URL: e.cfg.URL, Epoch: epoch, FrontierEpoch: le, FrontierLSN: ll}
	peers := e.cfg.Peers
	e.transition(fmt.Sprintf("campaigning for epoch %d (frontier %d/%d)", epoch, le, ll))
	e.mu.Unlock()

	type result struct {
		peer Peer
		resp VoteResponse
		err  error
	}
	results := make(chan result, len(peers))
	rpcCtx, cancel := context.WithTimeout(ctx, e.cfg.HeartbeatEvery)
	defer cancel()
	for _, p := range peers {
		go func(p Peer) {
			resp, err := e.cfg.Transport.RequestVote(rpcCtx, p.URL, req)
			results <- result{peer: p, resp: resp, err: err}
		}(p)
	}

	grants := 1 // own vote
	witnessSeen, witnessOK := false, false
	var ahead *VoteResponse
	for range peers {
		r := <-results
		if r.peer.Witness {
			witnessSeen = true
		}
		if r.err != nil {
			continue
		}
		if r.peer.Witness {
			witnessOK = true
		}
		if r.resp.Granted {
			grants++
		} else if r.resp.Epoch > epoch {
			resp := r.resp
			ahead = &resp
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if witnessSeen {
		e.witnessOK = witnessOK
	}
	if ahead != nil {
		// A higher epoch exists; adopt what we learned and back off.
		if err := e.cfg.State.Store(ahead.Epoch); err != nil {
			e.persistFailed("higher epoch", ahead.Epoch, err)
		}
		if ahead.LeaderID != "" {
			e.leaderEpoch, e.leaderID, e.leaderURL = ahead.Epoch, ahead.LeaderID, ahead.LeaderURL
		}
		e.leaseUntil = e.cfg.Clock.Now().Add(e.electionTimeout())
		e.transition(fmt.Sprintf("campaign for epoch %d lost: epoch %d exists", epoch, ahead.Epoch))
		return
	}
	if e.isLeader || e.cfg.State.Promised() != epoch {
		// A handler promoted us or granted a higher epoch mid-campaign;
		// our quorum (if any) is stale.
		return
	}
	if grants < e.quorum() {
		e.leaseUntil = e.cfg.Clock.Now().Add(e.electionTimeout())
		e.transition(fmt.Sprintf("campaign for epoch %d failed: %d/%d votes", epoch, grants, e.quorum()))
		return
	}
	if err := e.cfg.PromoteTo(epoch); err != nil {
		e.logger.Warn("promotion refused", slog.Uint64("epoch", epoch), slog.Any("err", err))
		e.leaseUntil = e.cfg.Clock.Now().Add(e.electionTimeout())
		e.transition(fmt.Sprintf("won epoch %d but promotion refused", epoch))
		return
	}
	e.isLeader = true
	e.myEpoch = epoch
	e.leaderID, e.leaderURL, e.leaderEpoch = e.cfg.ID, e.cfg.URL, epoch
	e.leaseUntil = e.cfg.Clock.Now().Add(e.leaseTTL())
	e.transition(fmt.Sprintf("won election: leading at epoch %d (%d/%d votes)", epoch, grants, e.quorum()))
}

// OnHeartbeat handles a leader's heartbeat: accept (and promise) its
// epoch if nothing higher has been promised, refuse with the higher
// epoch and leader hint otherwise.
func (e *Elector) OnHeartbeat(req HeartbeatRequest) HeartbeatResponse {
	e.mu.Lock()
	defer e.mu.Unlock()
	resp := HeartbeatResponse{From: e.cfg.ID}
	promised := e.cfg.State.Promised()
	// Record the sender's committed frontier before anything else. Even
	// a heartbeat we are about to refuse came from a node that held a
	// lease when it released those acks, so the frontier is real acked
	// history; recording it (forward-only) can only tighten the vote
	// check. It is fsynced before the reply, and acks only flow under a
	// lease renewed by these rounds — so every released ack is covered,
	// within one heartbeat round, by a frontier durably held on a
	// quorum. The residual round only matters for vacuous (no-follower)
	// acks; with a live sync follower its own data covers the gap.
	if err := e.cfg.State.NoteFrontier(req.FrontierEpoch, req.FrontierLSN); err != nil {
		e.logger.Error("persisting frontier failed", slog.Uint64("frontier_epoch", req.FrontierEpoch), slog.Uint64("frontier_lsn", req.FrontierLSN), slog.Any("err", err))
		resp.Epoch = promised
		return resp
	}
	switch {
	case req.Epoch < promised:
		resp.Epoch = promised
		resp.LeaderID, resp.LeaderURL = e.leaderID, e.leaderURL
	case req.Epoch == promised && e.leaderEpoch == req.Epoch && e.leaderID != "" && e.leaderID != req.From:
		// This epoch already has a different owner — refuse the claim.
		resp.Epoch = promised
		resp.LeaderID, resp.LeaderURL = e.leaderID, e.leaderURL
	default:
		if err := e.cfg.State.Store(req.Epoch); err != nil {
			e.persistFailed("heartbeat epoch", req.Epoch, err)
			resp.Epoch = promised
			return resp
		}
		if e.isLeader && req.From != e.cfg.ID {
			e.becomeFollower(fmt.Sprintf("deposed by heartbeat: %q leads at epoch %d", req.From, req.Epoch))
		}
		e.leaderID, e.leaderURL, e.leaderEpoch = req.From, req.URL, req.Epoch
		if !e.isLeader {
			e.leaseUntil = e.cfg.Clock.Now().Add(e.electionTimeout())
		}
		resp.OK = true
		resp.Epoch = req.Epoch
		resp.LeaderID, resp.LeaderURL = e.leaderID, e.leaderURL
	}
	return resp
}

// OnVote handles a vote request: grant iff the requested epoch is
// strictly above every promise ever made, persisting the new promise
// before the grant leaves the node.
func (e *Elector) OnVote(req VoteRequest) VoteResponse {
	e.mu.Lock()
	defer e.mu.Unlock()
	resp := VoteResponse{From: e.cfg.ID}
	promised := e.cfg.State.Promised()
	if req.Epoch <= promised {
		resp.Epoch = promised
		resp.LeaderID, resp.LeaderURL = e.leaderID, e.leaderURL
		return resp
	}
	// Up-to-dateness (Raft §5.4.1, adapted): refuse any candidate whose
	// data frontier is behind the highest this voter can attest to — its
	// own data, or a frontier a leader reported in a heartbeat. Electing
	// such a candidate would make the real data-holder replace acked
	// records with the candidate's snapshot when it rejoins. The refusal
	// does not burn a promise, so the epoch stays winnable by an
	// up-to-date candidate.
	if fe, fl := e.knownFrontier(); frontierLess(req.FrontierEpoch, req.FrontierLSN, fe, fl) {
		resp.Epoch = promised
		resp.LeaderID, resp.LeaderURL = e.leaderID, e.leaderURL
		e.logger.Warn("refusing vote: candidate frontier behind the known one",
			slog.String("candidate", req.From), slog.Uint64("epoch", req.Epoch),
			slog.Uint64("frontier_epoch", req.FrontierEpoch), slog.Uint64("frontier_lsn", req.FrontierLSN),
			slog.Uint64("known_epoch", fe), slog.Uint64("known_lsn", fl))
		return resp
	}
	if err := e.cfg.State.Store(req.Epoch); err != nil {
		e.persistFailed("vote epoch", req.Epoch, err)
		resp.Epoch = promised
		return resp
	}
	if e.isLeader {
		e.becomeFollower(fmt.Sprintf("granted epoch %d to %q; stepping down from %d", req.Epoch, req.From, e.myEpoch))
	} else {
		e.leaseUntil = e.cfg.Clock.Now().Add(e.electionTimeout())
	}
	// The grantee is this epoch's owner-elect: nobody else can assemble
	// a quorum at req.Epoch once this promise is fsynced, so a later
	// same-epoch heartbeat from anyone else (a restarted ex-primary
	// booting at an epoch it never won) must be refused, not adopted.
	e.leaderID, e.leaderURL, e.leaderEpoch = req.From, req.URL, req.Epoch
	resp.Granted = true
	resp.Epoch = req.Epoch
	return resp
}
