package sched

import (
	"fmt"
	"sort"
	"time"
)

// Power-aware scheduling: §6 of the paper proposes running more nodes
// than the power budget could support at TDP, using per-job power
// prediction to keep the aggregate under a system cap. This file extends
// the simulator with power as a second scheduled resource.
//
// The cap is enforced against each job's ESTIMATED total power (predicted
// per-node power × nodes, plus headroom), the information available
// pre-execution. Backfill remains node-reservation based; the power
// constraint is enforced on every start decision, which keeps the head's
// node reservation intact and is the conservative choice a production
// implementation would make.

// Options tunes Simulate beyond the defaults.
type Options struct {
	// DisableBackfill turns off EASY backfill (pure FCFS) — the ablation
	// baseline for the scheduler design choice.
	DisableBackfill bool
	// PowerCapW, when positive, is a whole-system power cap enforced at
	// job start using EstPowerW estimates.
	PowerCapW float64
	// EstPowerW estimates a request's total power draw (watts across all
	// its nodes). Required when PowerCapW > 0.
	EstPowerW func(*Request) float64
	// IdlePowerW is the per-node idle draw counted against the cap for
	// unoccupied nodes (0 to ignore).
	IdlePowerW float64
}

// SimulateOpts schedules reqs like Simulate, honouring opts.
func SimulateOpts(nodes int, reqs []Request, opts Options) ([]Placement, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("sched: machine with %d nodes", nodes)
	}
	if opts.PowerCapW > 0 {
		if opts.EstPowerW == nil {
			return nil, fmt.Errorf("sched: power cap without an estimator")
		}
		idle := opts.IdlePowerW * float64(nodes)
		if idle >= opts.PowerCapW {
			return nil, fmt.Errorf("sched: idle draw %.0f W alone exceeds the %.0f W cap", idle, opts.PowerCapW)
		}
	}
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return nil, err
		}
		if reqs[i].Nodes > nodes {
			return nil, fmt.Errorf("sched: request %d needs %d of %d nodes", reqs[i].ID, reqs[i].Nodes, nodes)
		}
		if opts.PowerCapW > 0 {
			est := opts.EstPowerW(&reqs[i])
			if est <= 0 {
				return nil, fmt.Errorf("sched: request %d has power estimate %v", reqs[i].ID, est)
			}
			idleRest := opts.IdlePowerW * float64(nodes-reqs[i].Nodes)
			if est+idleRest > opts.PowerCapW {
				return nil, fmt.Errorf("sched: request %d alone exceeds the power cap", reqs[i].ID)
			}
		}
	}
	s := newSim(nodes)
	s.opts = opts
	// Arrival order: submit time, then ID for determinism.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sortRequests(reqs, order)
	for _, idx := range order {
		r := reqs[idx]
		s.advanceTo(r.Submit)
		s.queue = append(s.queue, r)
		s.schedule(r.Submit)
	}
	for len(s.queue) > 0 || s.running.Len() > 0 {
		if s.running.Len() == 0 {
			// Queue non-empty but nothing running cannot happen: the head
			// always fits an empty machine (size and power checked above).
			return nil, fmt.Errorf("sched: deadlock with %d queued jobs", len(s.queue))
		}
		next := (*s.running)[0].end
		s.advanceTo(next)
		s.schedule(next)
	}
	sortPlacements(s.placed)
	return s.placed, nil
}

func sortRequests(reqs []Request, order []int) {
	sort.Slice(order, func(a, b int) bool {
		ra, rb := &reqs[order[a]], &reqs[order[b]]
		if !ra.Submit.Equal(rb.Submit) {
			return ra.Submit.Before(rb.Submit)
		}
		return ra.ID < rb.ID
	})
}

func sortPlacements(ps []Placement) {
	sort.Slice(ps, func(a, b int) bool {
		if !ps[a].Start.Equal(ps[b].Start) {
			return ps[a].Start.Before(ps[b].Start)
		}
		return ps[a].ID < ps[b].ID
	})
}

// powerFits reports whether starting r now keeps the estimated aggregate
// draw (running estimates + idle baseline) under the cap.
func (s *sim) powerFits(r *Request) bool {
	if s.opts.PowerCapW <= 0 {
		return true
	}
	est := s.opts.EstPowerW(r)
	idleNodes := len(s.free) - r.Nodes
	idle := s.opts.IdlePowerW * float64(idleNodes)
	return s.runningPowerW+est+idle <= s.opts.PowerCapW
}

// WaitStats summarizes queue waiting times of a schedule.
type WaitStats struct {
	Jobs        int
	MeanWaitMin float64
	P95WaitMin  float64
	MaxWaitMin  float64
}

// Waits computes waiting-time statistics over placements.
func Waits(ps []Placement) WaitStats {
	if len(ps) == 0 {
		return WaitStats{}
	}
	waits := make([]time.Duration, len(ps))
	var sum time.Duration
	var max time.Duration
	for i := range ps {
		w := ps[i].Start.Sub(ps[i].Submit)
		waits[i] = w
		sum += w
		if w > max {
			max = w
		}
	}
	sort.Slice(waits, func(a, b int) bool { return waits[a] < waits[b] })
	p95 := waits[(len(waits)-1)*95/100]
	return WaitStats{
		Jobs:        len(ps),
		MeanWaitMin: sum.Minutes() / float64(len(ps)),
		P95WaitMin:  p95.Minutes(),
		MaxWaitMin:  max.Minutes(),
	}
}
