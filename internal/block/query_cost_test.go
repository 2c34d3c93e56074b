package block

import (
	"sync/atomic"
	"testing"

	"hpcpower/internal/vfs"
)

// countingFS counts the files a read path opens — a cost that can be
// asserted exactly, unlike a wall-clock time.
type countingFS struct {
	vfs.FS
	opens atomic.Int64
}

func (c *countingFS) Open(name string) (vfs.File, error) {
	c.opens.Add(1)
	return c.FS.Open(name)
}

// TestAppendValuesOpensEachBlockOnce: a fleet-wide pull over k blocks
// costs k opens, however many series the blocks hold; a node subset
// reads its chunks through the same one handle per block.
func TestAppendValuesOpensEachBlockOnce(t *testing.T) {
	const blocks = 3
	nodes := make([]int, 40)
	for i := range nodes {
		nodes[i] = i
	}
	fs := &countingFS{FS: vfs.OS}
	s := newTestStore(t, Config{WindowSeconds: 7200, FS: fs})
	truth := fillStore(t, s, nodes, blocks)
	total := 0
	for _, pts := range truth {
		total += len(pts)
	}
	for _, c := range []struct {
		name  string
		nodes []int
		want  int
	}{
		{"all nodes", nil, total},
		{"three nodes", []int{5, 17, 39}, len(truth[5]) + len(truth[17]) + len(truth[39])},
	} {
		fs.opens.Store(0)
		vals, degraded, err := s.Querier().AppendValues(nil, c.nodes, 0, 0)
		if err != nil || degraded {
			t.Fatalf("%s: degraded %v, err %v", c.name, degraded, err)
		}
		if len(vals) != c.want {
			t.Fatalf("%s: %d values, want %d", c.name, len(vals), c.want)
		}
		if got := fs.opens.Load(); got != blocks {
			t.Fatalf("%s: %d opens for %d blocks of %d series, want one per block", c.name, got, blocks, len(nodes))
		}
	}
}
