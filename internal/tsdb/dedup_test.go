package tsdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDeduperBasics(t *testing.T) {
	d := NewDeduper(DedupConfig{Window: 64})
	if dup, _ := d.Mark("a", 1); dup {
		t.Fatal("first delivery flagged duplicate")
	}
	if dup, stale := d.Mark("a", 1); !dup || stale {
		t.Fatalf("redelivery: dup=%v stale=%v, want dup only", dup, stale)
	}
	// Other agents are independent.
	if dup, _ := d.Mark("b", 1); dup {
		t.Fatal("agent b seq 1 flagged duplicate after agent a seq 1")
	}
	// Out-of-order within the window: each seq accepted exactly once.
	for _, seq := range []uint64{5, 3, 4, 2} {
		if dup, _ := d.Mark("a", seq); dup {
			t.Fatalf("seq %d first delivery flagged duplicate", seq)
		}
		if dup, _ := d.Mark("a", seq); !dup {
			t.Fatalf("seq %d redelivery not flagged", seq)
		}
	}
}

func TestDeduperWindowSlide(t *testing.T) {
	d := NewDeduper(DedupConfig{Window: 64})
	for seq := uint64(1); seq <= 200; seq++ {
		if dup, _ := d.Mark("a", seq); dup {
			t.Fatalf("seq %d flagged duplicate", seq)
		}
	}
	// Too old to judge: must be treated as duplicate, never re-counted.
	if dup, stale := d.Mark("a", 100); !dup || !stale {
		t.Fatalf("seq 100 behind window: dup=%v stale=%v, want both", dup, stale)
	}
	// Recent seqs still deduplicated despite bitmap reuse across slides.
	if dup, _ := d.Mark("a", 200); !dup {
		t.Fatal("seq 200 redelivery not flagged")
	}
	// A gap left open inside the window is still acceptable once.
	if dup, _ := d.Mark("a", 300); dup {
		t.Fatal("seq 300 flagged duplicate")
	}
	if dup, _ := d.Mark("a", 260); dup {
		t.Fatal("seq 260 (in-window gap) flagged duplicate")
	}
}

func TestDeduperForget(t *testing.T) {
	d := NewDeduper(DedupConfig{Window: 64})
	d.Mark("a", 7)
	d.Forget("a", 7)
	if dup, _ := d.Mark("a", 7); dup {
		t.Fatal("seq 7 flagged duplicate after Forget")
	}
	// Forget of unknown agent/seq is a no-op.
	d.Forget("zzz", 1)
	d.Forget("a", 99)
}

func TestDeduperAgentEviction(t *testing.T) {
	d := NewDeduper(DedupConfig{Window: 64, MaxAgents: 4})
	for i := 0; i < 8; i++ {
		d.Mark(fmt.Sprintf("agent-%d", i), 1)
	}
	if got := len(d.ExportState().Agents); got != 4 {
		t.Fatalf("tracked agents = %d, want 4", got)
	}
	// The most recent agent survived.
	if dup, _ := d.Mark("agent-7", 1); !dup {
		t.Error("most recent agent was evicted")
	}
}

// TestDeduperConcurrent delivers every (agent, seq) three times from
// racing goroutines: exactly one delivery per pair may be accepted.
func TestDeduperConcurrent(t *testing.T) {
	d := NewDeduper(DedupConfig{Window: 1024})
	const agents, perAgent, deliveries = 8, 500, 3
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for a := 0; a < agents; a++ {
		for r := 0; r < deliveries; r++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				id := fmt.Sprintf("agent-%d", a)
				for seq := uint64(1); seq <= perAgent; seq++ {
					if dup, _ := d.Mark(id, seq); !dup {
						accepted.Add(1)
					}
				}
			}(a)
		}
	}
	wg.Wait()
	if got := accepted.Load(); got != agents*perAgent {
		t.Fatalf("accepted %d of %d×%d concurrent deliveries, want exactly one per (agent, seq)",
			got, agents, perAgent)
	}
}
