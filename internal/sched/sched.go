// Package sched simulates the batch systems of the two clusters (Torque on
// Emmy, Slurm on Meggie) at the level the study consumes them: exclusive
// whole-node allocation with FCFS + EASY backfill, producing the
// accounting records (submit/start/end, node list) that the analyses join
// with telemetry.
//
// Both production schedulers keep their machines >80% utilized with long
// wait queues; the simulator reproduces that regime when driven with an
// offered load at or above capacity.
package sched

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"hpcpower/internal/units"
)

// Request is one job submission.
type Request struct {
	ID      uint64
	User    string
	App     string
	Nodes   int
	ReqWall time.Duration // requested walltime (kill limit)
	Runtime time.Duration // actual runtime; capped at ReqWall by the simulator
	Submit  time.Time
}

// Validate reports the first structural problem with the request.
func (r *Request) Validate() error {
	switch {
	case r.Nodes <= 0:
		return fmt.Errorf("sched: request %d with %d nodes", r.ID, r.Nodes)
	case r.ReqWall <= 0:
		return fmt.Errorf("sched: request %d with walltime %v", r.ID, r.ReqWall)
	case r.Runtime <= 0:
		return fmt.Errorf("sched: request %d with runtime %v", r.ID, r.Runtime)
	}
	return nil
}

// Placement is a scheduled job: the accounting record the batch system
// writes when the job completes.
type Placement struct {
	Request
	Start   time.Time
	End     time.Time
	NodeIDs []int
}

// Simulate schedules reqs on a machine with the given node count using
// FCFS with EASY backfill and returns the placements, ordered by start
// time. Requests need not be sorted. Jobs larger than the machine are
// rejected with an error.
func Simulate(nodes int, reqs []Request) ([]Placement, error) {
	return SimulateOpts(nodes, reqs, Options{})
}

// runningJob tracks an executing job inside the simulator.
type runningJob struct {
	end      time.Time // actual completion
	estEnd   time.Time // start + ReqWall: what the scheduler may assume
	nodeIDs  []int
	estPower float64 // power estimate charged against the cap
	idx      int     // heap index
}

// completionHeap orders running jobs by actual completion time.
type completionHeap []*runningJob

func (h completionHeap) Len() int           { return len(h) }
func (h completionHeap) Less(a, b int) bool { return h[a].end.Before(h[b].end) }
func (h completionHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a]; h[a].idx, h[b].idx = a, b }
func (h *completionHeap) Push(x interface{}) {
	j := x.(*runningJob)
	j.idx = len(*h)
	*h = append(*h, j)
}
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

type sim struct {
	free    []int // free node ids, used as a stack (lowest ids preferred)
	queue   []Request
	running *completionHeap
	placed  []Placement
	opts    Options
	// runningPowerW sums the power estimates of running jobs when a
	// power cap is active.
	runningPowerW float64
}

func newSim(nodes int) *sim {
	s := &sim{running: &completionHeap{}}
	// Push high ids first so the lowest ids are allocated first.
	for i := nodes - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	heap.Init(s.running)
	return s
}

// advanceTo completes every running job that ends at or before t,
// rescheduling the queue after each completion batch.
func (s *sim) advanceTo(t time.Time) {
	for s.running.Len() > 0 && !(*s.running)[0].end.After(t) {
		now := (*s.running)[0].end
		// Complete everything ending at the same instant before scheduling.
		for s.running.Len() > 0 && (*s.running)[0].end.Equal(now) {
			j := heap.Pop(s.running).(*runningJob)
			s.free = append(s.free, j.nodeIDs...)
			s.runningPowerW -= j.estPower
		}
		s.schedule(now)
	}
}

// schedule runs FCFS + EASY backfill at instant now.
func (s *sim) schedule(now time.Time) {
	// FCFS phase: start queue heads while node AND power constraints fit.
	for len(s.queue) > 0 && s.queue[0].Nodes <= len(s.free) && s.powerFits(&s.queue[0]) {
		s.start(s.queue[0], now)
		s.queue = s.queue[1:]
	}
	if len(s.queue) == 0 || s.opts.DisableBackfill {
		return
	}
	// EASY backfill phase. The head does not fit; compute its reservation
	// using the conservative (requested-walltime) completion estimates.
	head := s.queue[0]
	shadow, spare := s.reservation(head.Nodes, now)
	for i := 1; i < len(s.queue); {
		j := s.queue[i]
		if j.Nodes <= len(s.free) && s.powerFits(&s.queue[i]) && s.canBackfill(j, now, shadow, spare) {
			s.start(j, now)
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			// Starting a backfill job consumes free nodes; the shadow time
			// itself is unchanged (reservation estimates only count running
			// jobs' requested walltimes, and the new job must respect it),
			// but the spare-node budget shrinks if it runs past the shadow.
			if now.Add(j.ReqWall).After(shadow) {
				spare -= j.Nodes
			}
			continue
		}
		i++
	}
}

// reservation computes the EASY reservation for the queue head needing n
// nodes: the shadow time at which enough nodes are (conservatively)
// guaranteed free, and the number of spare nodes at that time beyond the
// head's need.
func (s *sim) reservation(n int, now time.Time) (shadow time.Time, spare int) {
	avail := len(s.free)
	if avail >= n {
		return now, avail - n
	}
	// Sort running jobs by their conservative end estimates.
	est := make([]*runningJob, s.running.Len())
	copy(est, *s.running)
	sort.Slice(est, func(a, b int) bool { return est[a].estEnd.Before(est[b].estEnd) })
	for _, j := range est {
		avail += len(j.nodeIDs)
		if avail >= n {
			return j.estEnd, avail - n
		}
	}
	// Unreachable when job sizes are validated against the machine size.
	return now.Add(1000 * time.Hour), 0
}

// canBackfill reports whether job j may start now without delaying the
// head's reservation: either it finishes (by its requested walltime)
// before the shadow time, or it fits within the spare nodes.
func (s *sim) canBackfill(j Request, now, shadow time.Time, spare int) bool {
	if !now.Add(j.ReqWall).After(shadow) {
		return true
	}
	return j.Nodes <= spare
}

// start allocates nodes and begins executing job r at time now.
func (s *sim) start(r Request, now time.Time) {
	run := r.Runtime
	if run > r.ReqWall {
		run = r.ReqWall // the batch system kills jobs at their walltime
	}
	ids := make([]int, r.Nodes)
	copy(ids, s.free[len(s.free)-r.Nodes:])
	s.free = s.free[:len(s.free)-r.Nodes]
	sort.Ints(ids)
	j := &runningJob{
		end:     now.Add(run),
		estEnd:  now.Add(r.ReqWall),
		nodeIDs: ids,
	}
	if s.opts.PowerCapW > 0 {
		j.estPower = s.opts.EstPowerW(&r)
		s.runningPowerW += j.estPower
	}
	heap.Push(s.running, j)
	req := r
	req.Runtime = run
	s.placed = append(s.placed, Placement{
		Request: req,
		Start:   now,
		End:     now.Add(run),
		NodeIDs: ids,
	})
}

// ActiveNodes returns the number of busy nodes at each sample instant of
// the grid, computed from placements with a difference array. Sampling is
// instantaneous, like the production monitoring: a job occupies sample i
// iff Start <= At(i) < End. This series is the numerator of the paper's
// system utilization (Fig. 1) and can never exceed the machine size.
func ActiveNodes(placements []Placement, grid units.TimeGrid) []int {
	diff := make([]int, grid.N+1)
	for i := range placements {
		p := &placements[i]
		if !p.End.After(grid.Start) || !p.Start.Before(grid.End()) {
			continue
		}
		// First sample instant at or after Start.
		lo := int((p.Start.Sub(grid.Start) + units.SampleInterval - 1) / units.SampleInterval)
		if lo < 0 {
			lo = 0
		}
		// First sample instant at or after End (exclusive bound).
		hi := int((p.End.Sub(grid.Start) + units.SampleInterval - 1) / units.SampleInterval)
		hi = minInt(hi, grid.N)
		if lo >= hi {
			continue
		}
		diff[lo] += p.Nodes
		diff[hi] -= p.Nodes
	}
	active := make([]int, grid.N)
	cur := 0
	for i := 0; i < grid.N; i++ {
		cur += diff[i]
		active[i] = cur
	}
	return active
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// MeanUtilization returns mean(active/total) over the grid.
func MeanUtilization(placements []Placement, grid units.TimeGrid, totalNodes int) float64 {
	active := ActiveNodes(placements, grid)
	var sum float64
	for _, a := range active {
		sum += float64(a) / float64(totalNodes)
	}
	if grid.N == 0 {
		return 0
	}
	return sum / float64(grid.N)
}
