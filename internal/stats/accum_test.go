package stats

import (
	"testing"
	"testing/quick"
)

// TestAccumulatorShardedMergeProperty is the contract the tsdb store's
// per-shard reduce relies on: partitioning a stream across K shards (by
// any assignment), accumulating per shard, and merging in any order
// yields the very moment accumulator a single sequential pass does.
func TestAccumulatorShardedMergeProperty(t *testing.T) {
	f := func(xs []float64, assign []uint8, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		var whole Moments
		shards := make([]Moments, k)
		for i, x := range xs {
			whole.Add(x)
			s := 0
			if len(assign) > 0 {
				s = int(assign[i%len(assign)]) % k
			}
			shards[s].Add(x)
		}
		var merged Moments
		for i := range shards {
			merged.Merge(&shards[len(shards)-1-i])
		}
		return merged == whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAccumulatorMergeAssociativity: merging shard by shard left to right
// equals pairwise tree reduction, to the bit — the property that lets the
// reduce happen in any topology (sequential drain or parallel tree).
func TestAccumulatorMergeAssociativity(t *testing.T) {
	mk := func(xs ...float64) Moments {
		var m Moments
		for _, x := range xs {
			m.Add(x)
		}
		return m
	}
	a := mk(1, 2, 3)
	b := mk(10.1, 20.7)
	c := mk(100, 200.3, 300, 1e300)

	left := a // ((a·b)·c)
	left.Merge(&b)
	left.Merge(&c)

	right := b // (a·(b·c))
	right.Merge(&c)
	tree := a
	tree.Merge(&right)

	if left != tree {
		t.Fatalf("associativity: %+v vs %+v", left, tree)
	}
}
