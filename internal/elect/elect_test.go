package elect

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hpcpower/internal/vfs"
)

// fakeClock is a manually-advanced clock; each node gets its own so
// tests can skew and jump them independently.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// memNet delivers RPCs by calling the target elector's handler
// directly, with per-directed-link partitions.
type memNet struct {
	mu    sync.Mutex
	nodes map[string]*Elector // keyed by URL
	cut   map[string]bool     // "from->to" blocked
}

func newMemNet() *memNet {
	return &memNet{nodes: make(map[string]*Elector), cut: make(map[string]bool)}
}

func (n *memNet) add(url string, e *Elector) { n.nodes[url] = e }

// isolate cuts every link to and from url (symmetric partition).
func (n *memNet) isolate(url string, others ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, o := range others {
		n.cut[url+"->"+o] = true
		n.cut[o+"->"+url] = true
	}
}

func (n *memNet) heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[string]bool)
}

func (n *memNet) blocked(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cut[from+"->"+to]
}

type memTransport struct {
	net  *memNet
	from string
}

func (t *memTransport) Heartbeat(_ context.Context, url string, req HeartbeatRequest) (HeartbeatResponse, error) {
	if t.net.blocked(t.from, url) {
		return HeartbeatResponse{}, fmt.Errorf("partitioned")
	}
	e, ok := t.net.nodes[url]
	if !ok {
		return HeartbeatResponse{}, fmt.Errorf("no node at %s", url)
	}
	return e.OnHeartbeat(req), nil
}

func (t *memTransport) RequestVote(_ context.Context, url string, req VoteRequest) (VoteResponse, error) {
	if t.net.blocked(t.from, url) {
		return VoteResponse{}, fmt.Errorf("partitioned")
	}
	e, ok := t.net.nodes[url]
	if !ok {
		return VoteResponse{}, fmt.Errorf("no node at %s", url)
	}
	return e.OnVote(req), nil
}

// group is a 3-node test harness: data nodes a and b plus witness w.
type group struct {
	t          *testing.T
	net        *memNet
	a, b, w    *Elector
	ca, cb, cw *fakeClock

	mu         sync.Mutex
	dataEpochs map[string]uint64   // node id -> data epoch
	frontiers  map[string]uint64   // node id -> committed frontier LSN
	promotions map[uint64][]string // epoch -> node ids that won it
	leaders    map[string]string   // node id -> last LeaderChanged URL
}

const (
	hb  = 100 * time.Millisecond
	ttl = 400 * time.Millisecond
)

func newGroup(t *testing.T) *group {
	t.Helper()
	g := &group{
		t:          t,
		net:        newMemNet(),
		ca:         newFakeClock(),
		cb:         newFakeClock(),
		cw:         newFakeClock(),
		dataEpochs: map[string]uint64{"a": 1, "b": 0},
		frontiers:  make(map[string]uint64),
		promotions: make(map[uint64][]string),
		leaders:    make(map[string]string),
	}
	dir := t.TempDir()
	peerA := Peer{ID: "a", URL: "http://a"}
	peerB := Peer{ID: "b", URL: "http://b"}
	peerW := Peer{ID: "w", URL: "http://w", Witness: true}
	mk := func(id, url string, peers []Peer, clock *fakeClock, lead, witness bool) *Elector {
		sf, err := OpenStateFile(vfs.OS, filepath.Join(dir, id+".promised"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			ID: id, URL: url, Peers: peers,
			Witness: witness, Lead: lead,
			HeartbeatEvery: hb,
			State:          sf,
			Clock:          clock,
			Transport:      &memTransport{net: g.net, from: url},
			Rand:           func() float64 { return 0.5 },
		}
		if !witness {
			cfg.Epoch = func() uint64 {
				g.mu.Lock()
				defer g.mu.Unlock()
				return g.dataEpochs[id]
			}
			cfg.PromoteTo = func(epoch uint64) error {
				g.mu.Lock()
				defer g.mu.Unlock()
				g.promotions[epoch] = append(g.promotions[epoch], id)
				g.dataEpochs[id] = epoch
				return nil
			}
			cfg.LeaderChanged = func(epoch uint64, _, url string) {
				g.mu.Lock()
				defer g.mu.Unlock()
				g.leaders[id] = url
				// Model the replication stream's ObserveEpoch: a live
				// follower adopts its leader's epoch, so the frontier it
				// advertises when campaigning carries the current epoch.
				if epoch > g.dataEpochs[id] {
					g.dataEpochs[id] = epoch
				}
			}
			cfg.Frontier = func() (uint64, uint64) {
				g.mu.Lock()
				defer g.mu.Unlock()
				return g.dataEpochs[id], g.frontiers[id]
			}
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.net.add(url, e)
		return e
	}
	g.a = mk("a", "http://a", []Peer{peerB, peerW}, g.ca, true, false)
	g.b = mk("b", "http://b", []Peer{peerA, peerW}, g.cb, false, false)
	g.w = mk("w", "http://w", []Peer{peerA, peerB}, g.cw, false, true)
	return g
}

func (g *group) tickAll() {
	ctx := context.Background()
	g.a.Tick(ctx)
	g.b.Tick(ctx)
	g.w.Tick(ctx)
	g.checkInvariants()
}

// checkInvariants asserts the safety property the whole design hangs
// on: every epoch has at most one winner, and no two nodes lead at the
// same epoch at the same instant.
func (g *group) checkInvariants() {
	g.t.Helper()
	g.mu.Lock()
	for epoch, ids := range g.promotions {
		if len(ids) > 1 {
			g.t.Fatalf("epoch %d promoted on %d nodes: %v", epoch, len(ids), ids)
		}
	}
	g.mu.Unlock()
	sa, sb := g.a.Status(), g.b.Status()
	if sa.Role == "leader" && sb.Role == "leader" && sa.Epoch == sb.Epoch {
		g.t.Fatalf("two leaders at epoch %d", sa.Epoch)
	}
}

// advanceAll moves every clock in lockstep (the synchronized-clock
// baseline; skew tests move them independently).
func (g *group) advanceAll(d time.Duration) {
	g.ca.Advance(d)
	g.cb.Advance(d)
	g.cw.Advance(d)
}

func TestLeaderAcquiresLeaseAfterQuorumRound(t *testing.T) {
	g := newGroup(t)
	if g.a.HasLease() {
		t.Fatal("the leader of the data epoch must boot without a lease")
	}
	g.tickAll()
	if !g.a.HasLease() {
		t.Fatal("leader should hold the lease after a quorum round")
	}
	st := g.a.Status()
	if st.Role != "leader" || st.Epoch != 1 || !st.WitnessOK {
		t.Fatalf("bad leader status: %+v", st)
	}
	if st := g.b.Status(); st.Role != "follower" || st.LeaderID != "a" {
		t.Fatalf("follower should have learned the leader: %+v", st)
	}
}

func TestFailoverOnLeaderSilence(t *testing.T) {
	g := newGroup(t)
	g.tickAll()
	// Symmetric partition of the primary: it can reach nobody, nobody
	// can reach it.
	g.net.isolate("http://a", "http://b", "http://w")
	for i := 0; i < 20 && !g.b.IsLeader(); i++ {
		g.advanceAll(hb)
		g.tickAll()
	}
	if !g.b.IsLeader() || !g.b.HasLease() {
		t.Fatal("standby did not take over after leader silence")
	}
	if g.a.HasLease() {
		t.Fatal("partitioned leader kept its lease past the TTL")
	}
	if st := g.b.Status(); st.Epoch != 2 {
		t.Fatalf("takeover should land at epoch 2, got %d", st.Epoch)
	}
	// Heal: the deposed primary must discover the new leader on its
	// next heartbeat round and report it via LeaderChanged.
	g.net.heal()
	for i := 0; i < 10; i++ {
		g.advanceAll(hb)
		g.tickAll()
	}
	if g.a.IsLeader() {
		t.Fatal("deposed primary still thinks it leads after heal")
	}
	g.mu.Lock()
	url := g.leaders["a"]
	g.mu.Unlock()
	if url != "http://b" {
		t.Fatalf("deposed primary learned leader %q, want http://b", url)
	}
}

func TestLeaderLosesLeaseWithoutQuorumAndRegainsIt(t *testing.T) {
	g := newGroup(t)
	g.tickAll()
	// Asymmetric partition: the leader cannot reach anyone, but the
	// followers' own clocks have not timed out yet — no election.
	g.net.isolate("http://a", "http://b", "http://w")
	g.ca.Advance(ttl + hb)
	g.a.Tick(context.Background())
	if g.a.HasLease() {
		t.Fatal("leader kept lease without a quorum")
	}
	// Heal before anyone campaigns: the same leader regains the lease
	// at the same epoch — no epoch burned on a blip.
	g.net.heal()
	g.a.Tick(context.Background())
	if !g.a.HasLease() {
		t.Fatal("leader did not regain lease after heal")
	}
	if st := g.a.Status(); st.Epoch != 1 {
		t.Fatalf("blip should not burn an epoch, got %d", st.Epoch)
	}
}

// TestSkewedClockDelaysElectionButNeverSplitsAnEpoch pins the headline
// safety claim: clock skew can stall or hasten elections, but every
// epoch still has exactly one owner because ownership is a persisted
// promise, not a timestamp.
func TestSkewedClockDelaysElectionButNeverSplitsAnEpoch(t *testing.T) {
	g := newGroup(t)
	g.tickAll()
	g.net.isolate("http://a", "http://b", "http://w")
	// The standby's clock is frozen: no matter how much real time the
	// leader loses, the standby never campaigns — liveness is lost,
	// safety is kept.
	g.ca.Advance(10 * ttl)
	g.cw.Advance(10 * ttl)
	for i := 0; i < 10; i++ {
		g.tickAll()
	}
	if g.b.IsLeader() {
		t.Fatal("frozen-clock standby should not have campaigned")
	}
	// Now the standby's clock jumps far ahead in one step: exactly one
	// election fires and it lands on a fresh epoch.
	g.cb.Advance(100 * ttl)
	for i := 0; i < 10; i++ {
		g.tickAll()
	}
	if !g.b.IsLeader() {
		t.Fatal("standby should win after its clock jump")
	}
	g.mu.Lock()
	winners := len(g.promotions[2])
	g.mu.Unlock()
	if winners != 1 {
		t.Fatalf("epoch 2 should have exactly one winner, got %d", winners)
	}
}

// TestJumpingClocksUnderChurn drives a randomized schedule of clock
// jumps, partitions, and heals, asserting after every step that no
// epoch ever has two owners and no two nodes lead the same epoch.
func TestJumpingClocksUnderChurn(t *testing.T) {
	g := newGroup(t)
	rng := rand.New(rand.NewSource(11))
	clocks := []*fakeClock{g.ca, g.cb, g.cw}
	urls := []string{"http://a", "http://b", "http://w"}
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0: // jump one clock ahead
			clocks[rng.Intn(3)].Advance(time.Duration(rng.Int63n(int64(3 * ttl))))
		case 1: // symmetric partition of one node
			u := urls[rng.Intn(3)]
			var others []string
			for _, o := range urls {
				if o != u {
					others = append(others, o)
				}
			}
			g.net.isolate(u, others...)
		case 2:
			g.net.heal()
		default:
			g.advanceAll(hb)
		}
		g.tickAll()
	}
}

// TestCampaignWithSkewedCandidateAgainstHealthyLeader: a standby whose
// clock races ahead campaigns against a live, connected leader. The
// vote mechanism makes this safe: the leader itself grants the higher
// epoch and steps down — one leader per epoch, no split.
func TestCampaignWithSkewedCandidateAgainstHealthyLeader(t *testing.T) {
	g := newGroup(t)
	g.tickAll()
	// The jump lands between heartbeats: the standby's election timer
	// (set at the last heartbeat, on its own clock) is now long past.
	g.cb.Advance(3 * ttl)
	g.b.Tick(context.Background())
	g.checkInvariants()
	if !g.b.IsLeader() {
		t.Fatal("fast-clock standby should have won the election")
	}
	if g.a.IsLeader() {
		t.Fatal("old leader must step down after granting a higher epoch")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.promotions[2]) != 1 || g.promotions[2][0] != "b" {
		t.Fatalf("epoch 2 owners: %v", g.promotions[2])
	}
}

// dirSyncFS sends directory fsyncs, and nothing else, through a FaultFS.
type dirSyncFS struct {
	vfs.FS
	dirs *vfs.FaultFS
}

func (d dirSyncFS) SyncDir(dir string) error { return d.dirs.SyncDir(dir) }

// TestVoteNotGrantedUntilPromiseIsDurable: the promise file is renamed
// into place but the directory fsync fails, so a crash could still bring
// the old promise back. The voter must refuse, and must not remember a
// promise it was not able to keep; the same request is granted once the
// disk takes it.
func TestVoteNotGrantedUntilPromiseIsDurable(t *testing.T) {
	dirs := vfs.NewFault(vfs.OS, vfs.FaultConfig{SyncErrProb: 1})
	sf, err := OpenStateFile(dirSyncFS{vfs.OS, dirs}, filepath.Join(t.TempDir(), "ELECT"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Config{
		ID: "w", URL: "http://w", Witness: true,
		State: sf, Clock: newFakeClock(), Transport: &memTransport{net: newMemNet()},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := VoteRequest{From: "a", URL: "http://a", Epoch: 7}
	if resp := w.OnVote(req); resp.Granted {
		t.Fatal("vote granted on a promise whose rename is not durable")
	}
	if got := dirs.Stats().SyncErrors; got != 1 {
		t.Fatalf("%d directory fsyncs failed, want 1", got)
	}
	if got := sf.Promised(); got != 0 {
		t.Fatalf("Promised() = %d after a failed store, want 0", got)
	}
	dirs.Configure(func(c *vfs.FaultConfig) { c.SyncErrProb = 0 })
	if resp := w.OnVote(req); !resp.Granted {
		t.Fatal("vote refused after the disk recovered")
	}
	if got := sf.Promised(); got != 7 {
		t.Fatalf("Promised() = %d, want 7", got)
	}
}

// TestVotePromiseSurvivesRestart: a voter that granted an epoch and
// crashed must refuse the same epoch after restart — the fsynced state
// file is what makes epochs unique across crashes.
func TestVotePromiseSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "promised")
	sf, err := OpenStateFile(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	mkWitness := func(sf *StateFile) *Elector {
		e, err := New(Config{
			ID: "w", URL: "http://w", Witness: true,
			State: sf, Clock: newFakeClock(), Transport: &memTransport{net: newMemNet()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	w := mkWitness(sf)
	if resp := w.OnVote(VoteRequest{From: "a", URL: "http://a", Epoch: 7}); !resp.Granted {
		t.Fatal("first grant refused")
	}
	// "Crash": reopen the state file into a fresh elector.
	sf2, err := OpenStateFile(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sf2.Promised(); got != 7 {
		t.Fatalf("promise not durable: %d", got)
	}
	w2 := mkWitness(sf2)
	if resp := w2.OnVote(VoteRequest{From: "b", URL: "http://b", Epoch: 7}); resp.Granted {
		t.Fatal("epoch 7 granted twice across a crash")
	}
	if resp := w2.OnVote(VoteRequest{From: "b", URL: "http://b", Epoch: 8}); !resp.Granted {
		t.Fatal("higher epoch should still be grantable")
	}
}

func TestWitnessNeverCampaigns(t *testing.T) {
	g := newGroup(t)
	g.net.isolate("http://a", "http://b", "http://w")
	g.net.isolate("http://b", "http://w")
	for i := 0; i < 30; i++ {
		g.advanceAll(ttl)
		g.tickAll()
	}
	if st := g.w.Status(); st.Role != "witness" {
		t.Fatalf("witness changed role: %+v", st)
	}
}

func TestPromotionRefusalKeepsFollower(t *testing.T) {
	g := newGroup(t)
	g.tickAll()
	// Make b's promotion fail (e.g. the node is still recovering).
	g.mu.Lock()
	g.promotions = map[uint64][]string{}
	g.mu.Unlock()
	refuse := func(epoch uint64) error { return fmt.Errorf("still recovering") }
	g.b.cfg.PromoteTo = refuse
	g.net.isolate("http://a", "http://b", "http://w")
	g.advanceAll(2 * ttl)
	g.b.Tick(context.Background())
	if g.b.IsLeader() {
		t.Fatal("refused promotion must not make a leader")
	}
	if st := g.b.Status(); st.Role != "follower" {
		t.Fatalf("want follower, got %+v", st)
	}
}

// TestRestartedExPrimaryAtIncumbentEpochDefers: a rejoined-then-
// restarted ex-primary boots with -role primary at the SAME data epoch
// the incumbent leads at (its epoch file was advanced during the
// rejoin). Its heartbeat is refused with an equal — not higher — epoch,
// which must still depose it, or it stalls as a leaderless leader.
func TestRestartedExPrimaryAtIncumbentEpochDefers(t *testing.T) {
	g := newGroup(t)
	g.tickAll()
	// b takes over at epoch 2.
	g.net.isolate("http://a", "http://b", "http://w")
	for i := 0; i < 20 && !g.b.IsLeader(); i++ {
		g.advanceAll(hb)
		g.tickAll()
	}
	if !g.b.IsLeader() {
		t.Fatal("standby did not take over")
	}
	// "Restart" a as a configured primary whose data epoch was advanced
	// to 2 by a prior rejoin: fresh elector, Lead=true, Epoch()==2.
	g.mu.Lock()
	g.dataEpochs["a"] = 2
	g.mu.Unlock()
	sf, err := OpenStateFile(vfs.OS, filepath.Join(t.TempDir(), "a2.promised"))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New(Config{
		ID: "a", URL: "http://a",
		Peers:          []Peer{{ID: "b", URL: "http://b"}, {ID: "w", URL: "http://w", Witness: true}},
		Lead:           true,
		HeartbeatEvery: hb, State: sf, Clock: g.ca,
		Transport: &memTransport{net: g.net, from: "http://a"},
		Rand:      func() float64 { return 0.5 },
		Epoch:     func() uint64 { return 2 },
		PromoteTo: func(uint64) error { return fmt.Errorf("must not promote") },
		LeaderChanged: func(_ uint64, _, url string) {
			g.mu.Lock()
			g.leaders["a"] = url
			g.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.net.nodes["http://a"] = a2
	g.net.heal()
	for i := 0; i < 5 && a2.IsLeader(); i++ {
		g.advanceAll(hb)
		a2.Tick(context.Background())
		g.b.Tick(context.Background())
		g.w.Tick(context.Background())
	}
	if a2.IsLeader() {
		t.Fatal("restarted ex-primary at the incumbent's epoch was not deposed")
	}
	if !g.b.IsLeader() {
		t.Fatal("incumbent must keep leading")
	}
	g.mu.Lock()
	url := g.leaders["a"]
	g.mu.Unlock()
	if url != "http://b" {
		t.Fatalf("deposed node learned leader %q, want http://b", url)
	}
}

// TestBootAsFollowerWhenEpochPromised: a node that led epoch 3 (Lead)
// but has promised epoch 4 since must NOT boot as leader — the promise
// may have gone to another node's campaign, and counting its own vote at
// epoch 3 could assemble a quorum beside a leader of epoch 4 (the
// sequence that loses acked records: the stale leader acks, then
// truncates on rejoin). Leadership must come back only through a
// campaign.
func TestBootAsFollowerWhenEpochPromised(t *testing.T) {
	dir := t.TempDir()
	sf, err := OpenStateFile(vfs.OS, filepath.Join(dir, "promised"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Store(4); err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	promoted := 0
	e, err := New(Config{
		ID: "a", URL: "http://a",
		Peers:          []Peer{{ID: "w", URL: "http://w", Witness: true}},
		Lead:           true,
		HeartbeatEvery: hb, State: sf, Clock: clock,
		Transport: &memTransport{net: newMemNet()},
		Rand:      func() float64 { return 0.5 },
		Epoch:     func() uint64 { return 3 },
		PromoteTo: func(uint64) error { promoted++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.IsLeader() {
		t.Fatal("Lead=true with a promise past the led epoch must boot as follower")
	}
	if st := e.Status(); st.Role != "follower" {
		t.Fatalf("want follower, got %+v", st)
	}
	_ = promoted

	// The same node with nothing promised past the epoch it led boots
	// leading it, whether its promise file is empty or holds that epoch,
	// and holds no lease before a quorum round.
	for _, promised := range []uint64{0, 3} {
		sf, err := OpenStateFile(vfs.OS, filepath.Join(t.TempDir(), "promised"))
		if err != nil {
			t.Fatal(err)
		}
		if err := sf.Store(promised); err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{
			ID: "a", URL: "http://a", Peers: []Peer{{ID: "w", URL: "http://w", Witness: true}},
			Lead: true, HeartbeatEvery: hb, State: sf, Clock: clock,
			Transport: &memTransport{net: newMemNet()}, Rand: func() float64 { return 0.5 },
			Epoch: func() uint64 { return 3 }, PromoteTo: func(uint64) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := e.Status(); st.Role != "leader" || st.Epoch != 3 || st.HasLease {
			t.Fatalf("promised %d: want the leader of epoch 3 without a lease, got %+v", promised, st)
		}
	}
}

// TestBootFollowerRegainsLeadershipByCampaign: the boot-as-follower rule
// must not strand a healthy group leaderless — after an election
// timeout the restarted node campaigns at a fresh epoch and wins.
func TestBootFollowerRegainsLeadershipByCampaign(t *testing.T) {
	g := newGroup(t)
	g.tickAll()
	// Restart the leader of epoch 1 with its promise file past it (it
	// granted epoch 2 to a campaign that came to nothing, say).
	sf, err := OpenStateFile(vfs.OS, filepath.Join(t.TempDir(), "a.promised"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Store(2); err != nil {
		t.Fatal(err)
	}
	a2, err := New(Config{
		ID: "a", URL: "http://a",
		Peers:          []Peer{{ID: "b", URL: "http://b"}, {ID: "w", URL: "http://w", Witness: true}},
		Lead:           true,
		HeartbeatEvery: hb, State: sf, Clock: g.ca,
		Transport: &memTransport{net: g.net, from: "http://a"},
		Rand:      func() float64 { return 0.5 },
		Epoch: func() uint64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return g.dataEpochs["a"]
		},
		PromoteTo: func(epoch uint64) error {
			g.mu.Lock()
			defer g.mu.Unlock()
			g.promotions[epoch] = append(g.promotions[epoch], "a")
			g.dataEpochs["a"] = epoch
			return nil
		},
		Frontier: func() (uint64, uint64) {
			g.mu.Lock()
			defer g.mu.Unlock()
			return g.dataEpochs["a"], g.frontiers["a"]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a2.IsLeader() {
		t.Fatal("restart with promised epoch must boot as follower")
	}
	g.net.nodes["http://a"] = a2
	for i := 0; i < 30 && !a2.IsLeader() && !g.b.IsLeader(); i++ {
		g.advanceAll(hb)
		a2.Tick(context.Background())
		g.b.Tick(context.Background())
		g.checkInvariants()
	}
	if !a2.IsLeader() && !g.b.IsLeader() {
		t.Fatal("group stayed leaderless after a boot-as-follower restart")
	}
}

// TestStaleCandidateRefused is the acked-data-loss scenario end to end:
// the leader's heartbeats teach the witness how far acked history
// reaches; a data node holding less than that must not be electable,
// while the real data-holder must be.
func TestStaleCandidateRefused(t *testing.T) {
	g := newGroup(t)
	g.mu.Lock()
	g.frontiers["a"] = 100 // a acked through lsn 100
	g.frontiers["b"] = 40  // b's replica is far behind
	g.mu.Unlock()
	g.tickAll() // heartbeat round: w and b learn a's frontier (1, 100)
	if fe, fl := g.w.cfg.State.MaxFrontier(); fe != 1 || fl != 100 {
		t.Fatalf("witness frontier after heartbeat: %d/%d, want 1/100", fe, fl)
	}
	// a dies; b campaigns with its stale frontier.
	g.net.isolate("http://a", "http://b", "http://w")
	for i := 0; i < 20; i++ {
		g.advanceAll(hb)
		g.tickAll()
	}
	if g.b.IsLeader() {
		t.Fatal("stale candidate won an election over acked data")
	}
	// b catches up (e.g. finishes draining the stream) — now electable.
	g.mu.Lock()
	g.frontiers["b"] = 100
	g.mu.Unlock()
	for i := 0; i < 30 && !g.b.IsLeader(); i++ {
		g.advanceAll(hb)
		g.tickAll()
	}
	if !g.b.IsLeader() {
		t.Fatal("caught-up candidate should win")
	}
}

// TestWitnessFrontierSurvivesRestart: the max-seen frontier must be as
// durable as the promise — a witness that crashes between learning the
// frontier and the next election must still refuse a stale candidate.
func TestWitnessFrontierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "promised")
	sf, err := OpenStateFile(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	mkWitness := func(sf *StateFile) *Elector {
		e, err := New(Config{
			ID: "w", URL: "http://w", Witness: true,
			State: sf, Clock: newFakeClock(), Transport: &memTransport{net: newMemNet()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	w := mkWitness(sf)
	w.OnHeartbeat(HeartbeatRequest{From: "a", URL: "http://a", Epoch: 3, FrontierEpoch: 3, FrontierLSN: 77})
	sf2, err := OpenStateFile(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if fe, fl := sf2.MaxFrontier(); fe != 3 || fl != 77 {
		t.Fatalf("frontier not durable: %d/%d", fe, fl)
	}
	w2 := mkWitness(sf2)
	if resp := w2.OnVote(VoteRequest{From: "b", URL: "http://b", Epoch: 9, FrontierEpoch: 3, FrontierLSN: 50}); resp.Granted {
		t.Fatal("stale candidate granted after witness restart")
	}
	if resp := w2.OnVote(VoteRequest{From: "b", URL: "http://b", Epoch: 9, FrontierEpoch: 3, FrontierLSN: 77}); !resp.Granted {
		t.Fatal("up-to-date candidate refused")
	}
}

func TestStateFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "promised")
	sf, err := OpenStateFile(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Store(3); err != nil {
		t.Fatal(err)
	}
	if err := sf.Store(2); err != nil {
		t.Fatal(err)
	}
	sf2, err := OpenStateFile(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if sf2.Promised() != 3 {
		t.Fatalf("promise rolled back: %d", sf2.Promised())
	}
}
