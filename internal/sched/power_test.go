package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"hpcpower/internal/rng"
	"hpcpower/internal/units"
)

// estPerNode returns an estimator charging w watts per node.
func estPerNode(w float64) func(*Request) float64 {
	return func(r *Request) float64 { return w * float64(r.Nodes) }
}

// TestSimulatePlacementsDigest pins every placement (job, start, end and
// node IDs, in returned order) of the seeded workload to the digest the
// 45-line Simulate body produced before it became SimulateOpts with no
// options: gen's released datasets are built on these placements.
func TestSimulatePlacementsDigest(t *testing.T) {
	ps, err := Simulate(16, randomRequests(rng.New(3), 150, 16))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range ps {
		fmt.Fprintln(h, p.ID, p.Start.UnixNano(), p.End.UnixNano(), p.NodeIDs)
	}
	const want = "d143042a8c0c8410a6127c2affea4781144bee42b7eb768bcc4a14b5febc667e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("placements digest %s, want %s", got, want)
	}
}

func TestDisableBackfillPureFCFS(t *testing.T) {
	// The EASY scenario from sched_test: with backfill disabled, J3 must
	// NOT jump ahead even though it fits the idle node.
	reqs := []Request{
		req(1, 3, 2*time.Hour, 2*time.Hour, t0),
		req(2, 4, time.Hour, time.Hour, t0.Add(time.Minute)),
		req(3, 1, time.Hour, time.Hour, t0.Add(2*time.Minute)),
	}
	ps, err := SimulateOpts(4, reqs, Options{DisableBackfill: true})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]Placement{}
	for _, p := range ps {
		byID[p.ID] = p
	}
	if byID[3].Start.Before(byID[2].Start) {
		t.Errorf("J3 started at %v before the head despite FCFS", byID[3].Start)
	}
}

func TestBackfillImprovesUtilization(t *testing.T) {
	// Ablation: EASY must beat pure FCFS on utilization for a mixed load.
	src := rng.New(41)
	reqs := randomRequests(src, 400, 32)
	easy, err := SimulateOpts(32, reqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fcfs, err := SimulateOpts(32, reqs, Options{DisableBackfill: true})
	if err != nil {
		t.Fatal(err)
	}
	grid := units.GridOver(t0, t0.Add(300*time.Hour))
	ue := MeanUtilization(easy, grid, 32)
	uf := MeanUtilization(fcfs, grid, 32)
	if !(ue > uf) {
		t.Errorf("EASY utilization %v <= FCFS %v", ue, uf)
	}
	// And mean waits must not degrade under EASY.
	if Waits(easy).MeanWaitMin > Waits(fcfs).MeanWaitMin {
		t.Errorf("EASY mean wait %v > FCFS %v", Waits(easy).MeanWaitMin, Waits(fcfs).MeanWaitMin)
	}
}

func TestPowerCapLimitsConcurrency(t *testing.T) {
	// Machine: 4 nodes, 100 W per node estimated, cap 250 W: at most two
	// 1-node jobs (plus no idle charge) run concurrently... with 4 nodes
	// at 100 W each, cap 250 allows 2 running jobs.
	reqs := []Request{
		req(1, 1, time.Hour, time.Hour, t0),
		req(2, 1, time.Hour, time.Hour, t0),
		req(3, 1, time.Hour, time.Hour, t0),
	}
	ps, err := SimulateOpts(4, reqs, Options{PowerCapW: 250, EstPowerW: estPerNode(100)})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]Placement{}
	for _, p := range ps {
		byID[p.ID] = p
	}
	if !byID[1].Start.Equal(t0) || !byID[2].Start.Equal(t0) {
		t.Errorf("first two jobs delayed: %v %v", byID[1].Start, byID[2].Start)
	}
	// Third job must wait for a completion even though nodes are free.
	if !byID[3].Start.Equal(t0.Add(time.Hour)) {
		t.Errorf("third job start = %v, want %v", byID[3].Start, t0.Add(time.Hour))
	}
}

func TestPowerCapNeverExceededByEstimates(t *testing.T) {
	src := rng.New(43)
	// Jobs of at most 6 nodes so no single job exceeds the cap alone.
	reqs := randomRequests(src, 200, 6)
	const cap = 16 * 150 * 0.6 // 60% of the 150 W/node worst case
	ps, err := SimulateOpts(16, reqs, Options{PowerCapW: cap, EstPowerW: estPerNode(150)})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the schedule and verify the estimated aggregate never
	// exceeds the cap at any start instant.
	type ev struct {
		at    time.Time
		delta float64
	}
	var evs []ev
	for _, p := range ps {
		evs = append(evs, ev{p.Start, 150 * float64(p.Nodes)})
		evs = append(evs, ev{p.End, -150 * float64(p.Nodes)})
	}
	// Sort by time, completions before starts at the same instant.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0; j-- {
			a, b := evs[j-1], evs[j]
			if a.at.After(b.at) || (a.at.Equal(b.at) && a.delta > 0 && b.delta < 0) {
				evs[j-1], evs[j] = evs[j], evs[j-1]
			} else {
				break
			}
		}
	}
	var cur float64
	for _, e := range evs {
		cur += e.delta
		if cur > cap+1e-6 {
			t.Fatalf("estimated power %v exceeds cap %v", cur, cap)
		}
	}
}

func TestPowerCapWithIdleDraw(t *testing.T) {
	// Idle nodes draw 50 W against the cap: 4 nodes idle = 200 W. With a
	// 450 W cap and 200 W jobs, only one job fits (200 + 3×50 = 350;
	// a second would need 400 + 2×50 = 500 > 450).
	reqs := []Request{
		req(1, 1, time.Hour, time.Hour, t0),
		req(2, 1, time.Hour, time.Hour, t0),
	}
	ps, err := SimulateOpts(4, reqs, Options{
		PowerCapW: 450, EstPowerW: estPerNode(200), IdlePowerW: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]Placement{}
	for _, p := range ps {
		byID[p.ID] = p
	}
	if !byID[2].Start.Equal(t0.Add(time.Hour)) {
		t.Errorf("second job start = %v", byID[2].Start)
	}
}

func TestSimulateOptsValidation(t *testing.T) {
	reqs := []Request{req(1, 1, time.Hour, time.Hour, t0)}
	if _, err := SimulateOpts(4, reqs, Options{PowerCapW: 100}); err == nil {
		t.Error("cap without estimator accepted")
	}
	if _, err := SimulateOpts(4, reqs, Options{PowerCapW: 100, EstPowerW: estPerNode(200)}); err == nil {
		t.Error("job exceeding cap alone accepted")
	}
	if _, err := SimulateOpts(4, reqs, Options{PowerCapW: 100, EstPowerW: estPerNode(10), IdlePowerW: 30}); err == nil {
		t.Error("idle draw exceeding cap accepted")
	}
	bad := func(*Request) float64 { return 0 }
	if _, err := SimulateOpts(4, reqs, Options{PowerCapW: 100, EstPowerW: bad}); err == nil {
		t.Error("zero estimate accepted")
	}
}

func TestWaits(t *testing.T) {
	ps := []Placement{
		{Request: req(1, 1, time.Hour, time.Hour, t0), Start: t0},
		{Request: req(2, 1, time.Hour, time.Hour, t0), Start: t0.Add(30 * time.Minute)},
		{Request: req(3, 1, time.Hour, time.Hour, t0), Start: t0.Add(time.Hour)},
	}
	w := Waits(ps)
	if w.Jobs != 3 {
		t.Errorf("jobs = %d", w.Jobs)
	}
	if w.MeanWaitMin != 30 {
		t.Errorf("mean wait = %v", w.MeanWaitMin)
	}
	if w.MaxWaitMin != 60 {
		t.Errorf("max wait = %v", w.MaxWaitMin)
	}
	if Waits(nil).Jobs != 0 {
		t.Error("empty waits nonzero")
	}
}
