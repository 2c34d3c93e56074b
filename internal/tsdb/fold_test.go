package tsdb

import (
	"math"
	"reflect"
	"testing"

	"hpcpower/internal/rng"
	"hpcpower/internal/trace"
)

// agentTicks is what four agents of eight nodes each ship over 200
// minutes, one batch per agent a minute: job 1 on all 32 nodes for the
// first 100 minutes, readings on the 0.1 W grid, then job 2, readings off
// it. batches[tick][agent].
func agentTicks() [][][]trace.PowerSample {
	const agents, perAgent, ticks = 4, 8, 200
	const base = 1_700_000_040 // a minute's start
	src := rng.New(46)
	batches := make([][][]trace.PowerSample, ticks)
	for tick := range batches {
		batches[tick] = make([][]trace.PowerSample, agents)
		for a := range batches[tick] {
			for i := 0; i < perAgent; i++ {
				node := a*perAgent + i
				smp := trace.PowerSample{Node: node, JobID: 1, Unix: base + int64(tick)*60 + int64(node),
					PowerW: math.Round(1500+400*src.Float64()+30*float64(i)) / 10}
				if tick >= ticks/2 {
					smp.JobID, smp.PowerW = 2, 120+90*src.Float64()
				}
				batches[tick][a] = append(batches[tick][a], smp)
			}
		}
	}
	return batches
}

func applyAll(t *testing.T, batches [][]trace.PowerSample) *Store {
	t.Helper()
	s := New(Config{Shards: 4, RingLen: 64})
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestJobStateIndependentOfOrder: the agents' batches applied in K seeded
// interleavings, each agent's own batches in order and no batch behind
// one foldLagMinutes or more newer than itself, leave the very state of
// the in-order apply — moments, tables, spread, trend and all — and a
// batch held back past that counts its samples as late, in everything
// but the trend.
func TestJobStateIndependentOfOrder(t *testing.T) {
	ticks := agentTicks()
	var inOrder [][]trace.PowerSample
	for _, tick := range ticks {
		inOrder = append(inOrder, tick...)
	}
	control := applyAll(t, inOrder)
	want := control.ExportState()
	for _, j := range want.Jobs {
		if j.Trend.EWSlow == 0 {
			t.Fatalf("in order, job %d has trend %+v", j.ID, j.Trend)
		}
	}
	if n := control.LateSamples(); n != 0 {
		t.Fatalf("in order, %d samples are late", n)
	}

	src := rng.New(7)
	for k := 0; k < 8; k++ {
		// Interleave the agents' queues over each foldLagMinutes ticks.
		var order [][]trace.PowerSample
		for at := 0; at < len(ticks); at += foldLagMinutes {
			queues := make([][][]trace.PowerSample, len(ticks[at]))
			left := 0
			for _, tick := range ticks[at:min(at+foldLagMinutes, len(ticks))] {
				for a, b := range tick {
					queues[a] = append(queues[a], b)
					left++
				}
			}
			for ; left > 0; left-- {
				a := src.Intn(len(queues))
				for len(queues[a]) == 0 {
					a = (a + 1) % len(queues)
				}
				order = append(order, queues[a][0])
				queues[a] = queues[a][1:]
			}
		}
		s := applyAll(t, order)
		if n := s.LateSamples(); n != 0 {
			t.Errorf("interleaving %d: %d samples are late", k, n)
		}
		if got := s.ExportState(); !reflect.DeepEqual(got, want) {
			for i := range want.Jobs {
				if !reflect.DeepEqual(got.Jobs[i], want.Jobs[i]) {
					t.Errorf("interleaving %d: job %d\n got %+v\nwant %+v", k, want.Jobs[i].ID, got.Jobs[i], want.Jobs[i])
				}
			}
			t.Fatalf("interleaving %d: the state differs from the in-order apply's", k)
		}
	}

	// Agent 0's batch of minute 10 held back behind minute 13: its eight
	// samples are late. They count in the analytics all the same.
	var held [][]trace.PowerSample
	for tick, batches := range ticks[:14] {
		for a, b := range batches {
			if tick != 10 || a != 0 {
				held = append(held, b)
			}
		}
	}
	held = append(held, ticks[10][0])
	for _, tick := range ticks[14:] {
		held = append(held, tick...)
	}
	late := applyAll(t, held)
	if got := late.LateSamples(); got != 8 {
		t.Errorf("%d late samples, want 8", got)
	}
	if a, b := analyticsImage(t, late), analyticsImage(t, control); string(a) != string(b) {
		t.Errorf("late samples left out of the analytics:\n got %s\nwant %s", a, b)
	}
}
