package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/rng"
)

// decodeNodesSequential is DecodeNodes as it was before the chunks were
// fanned out: one loop, framing and chunk of node i before anything of
// node i+1. Kept as the reference for which error a damaged section
// reports.
func decodeNodesSequential(st *StoreState, b []byte) error {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("tsdb: nodes section: bad node count")
	}
	b = b[n:]
	if count > uint64(len(b))/minNodeBytes {
		return fmt.Errorf("tsdb: nodes section claims %d nodes in %d bytes", count, len(b))
	}
	var nodes []NodeState
	if count > 0 {
		nodes = make([]NodeState, count)
	}
	prev := -1
	var it block.ChunkIter
	for i := range nodes {
		id, n := binary.Uvarint(b)
		if n <= 0 || id > math.MaxInt || len(b)-n < 4 {
			return fmt.Errorf("tsdb: nodes section: node %d of %d is cut short or has a bad id", i, count)
		}
		if int(id) <= prev {
			return fmt.Errorf("tsdb: nodes section: node %d after node %d, want strictly ascending ids", id, prev)
		}
		prev = int(id)
		chunkLen := binary.LittleEndian.Uint32(b[n:])
		b = b[n+4:]
		if uint64(chunkLen) > uint64(len(b)) {
			return fmt.Errorf("tsdb: nodes section: node %d claims a %d-byte chunk, %d bytes left", id, chunkLen, len(b))
		}
		if err := it.Init(b[:chunkLen]); err != nil {
			return fmt.Errorf("tsdb: nodes section: node %d: %w", id, err)
		}
		b = b[chunkLen:]
		if it.Left() > st.RingLen {
			return fmt.Errorf("tsdb: nodes section: node %d holds %d points, ring length is %d", id, it.Left(), st.RingLen)
		}
		capacity := it.Left()
		if capacity*4 >= st.RingLen {
			capacity = st.RingLen
		}
		pts := make([]Point, it.Left(), capacity)
		for j := range pts {
			t, v, err := it.Next()
			if err != nil {
				return fmt.Errorf("tsdb: nodes section: node %d: %w", id, err)
			}
			pts[j] = Point{Unix: t, PowerW: v}
		}
		nodes[i] = NodeState{Node: int(id), Points: pts}
	}
	if len(b) != 0 {
		return fmt.Errorf("tsdb: nodes section: %d bytes after the last node", len(b))
	}
	st.Nodes = nodes
	return nil
}

// requireSequentialOutcome decodes in with DecodeNodes at GOMAXPROCS 1
// and 4 and with the reference: same error text, or the same nodes.
func requireSequentialOutcome(t *testing.T, name string, ringLen int, in []byte) error {
	t.Helper()
	ref := &StoreState{RingLen: ringLen}
	want := decodeNodesSequential(ref, in)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := &StoreState{RingLen: ringLen}
		err := got.DecodeNodes(in)
		runtime.GOMAXPROCS(prev)
		switch {
		case (err == nil) != (want == nil), err != nil && err.Error() != want.Error():
			t.Errorf("%s, GOMAXPROCS %d: error %v, the sequential decoder says %v", name, procs, err, want)
		case err != nil && got.Nodes != nil:
			t.Errorf("%s, GOMAXPROCS %d: a rejected section left %d nodes behind", name, procs, len(got.Nodes))
		case err == nil:
			requireSameNodes(t, ringLen, got.Nodes, ref.Nodes)
		}
	}
	return want
}

// TestDecodeNodesErrorIsSequential: however the chunks are spread over
// workers, a damaged section is refused with the error a node-by-node
// decoder stops at — the lowest bad node's, chunk damage before any
// framing damage behind it, trailing bytes last.
func TestDecodeNodesErrorIsSequential(t *testing.T) {
	const ringLen, nodes = 4, 16
	p := block.Point{T: 1_700_000_000, V: 100}
	framed := func(id uint64, chunk []byte) []byte {
		b := binary.AppendUvarint(nil, id)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(chunk)))
		return append(b, chunk...)
	}
	good := func(id uint64) []byte { return framed(id, block.EncodeChunk([]block.Point{p, p})) }
	cut := func(id uint64) []byte { // a chunk that ends inside its second point
		chunk := block.EncodeChunk([]block.Point{p, p})
		return framed(id, chunk[:len(chunk)-3])
	}
	long := func(id uint64) []byte { return framed(id, block.EncodeChunk([]block.Point{p, p, p, p, p})) }
	// section builds 16 nodes with ids 10, 20, …; edit replaces some.
	section := func(edit map[int][]byte, tail ...byte) []byte {
		b := binary.AppendUvarint(nil, nodes)
		for i := 0; i < nodes; i++ {
			if n, ok := edit[i]; ok {
				b = append(b, n...)
			} else {
				b = append(b, good(uint64(10*(i+1)))...)
			}
		}
		return append(b, tail...)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want string // "" for a section that decodes
	}{
		{"intact", section(nil), ""},
		{"bad chunks low and high", section(map[int][]byte{1: cut(20), 14: cut(150)}), "node 20: "},
		{"bad chunk high only", section(map[int][]byte{14: cut(150)}), "node 150: "},
		{"long ring low, bad chunk high", section(map[int][]byte{2: long(30), 13: cut(140)}), "node 30 holds 5 points"},
		{"bad chunk low, long ring high", section(map[int][]byte{3: cut(40), 15: long(160)}), "node 40: "},
		{"bad chunk before a descending id", section(map[int][]byte{3: cut(40), 10: good(5)}), "node 40: "},
		{"descending id before a bad chunk", section(map[int][]byte{10: good(5), 12: cut(130)}), "node 5 after node 100"},
		{"descending id alone", section(map[int][]byte{15: good(150)}), "node 150 after node 150"},
		{"bad chunk and trailing bytes", section(map[int][]byte{14: cut(150)}, 0, 0), "node 150: "},
		{"trailing bytes alone", section(nil, 0, 0), "2 bytes after the last node"},
		{"bad chunk before a cut section", section(map[int][]byte{2: cut(30)})[:150], "node 30: "},
		{"cut section alone", section(nil)[:150], "tsdb: nodes section: node "},
	} {
		err := requireSequentialOutcome(t, tc.name, ringLen, tc.in)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v, want a clean decode", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// And on damage nobody picked: a few random bytes of an intact
	// section overwritten.
	intact := section(nil)
	src := rng.New(19)
	for i := 0; i < 500; i++ {
		in := append([]byte(nil), intact...)
		for k := 1 + src.Uint64()%3; k > 0; k-- {
			in[src.Uint64()%uint64(len(in))] = byte(src.Uint64())
		}
		requireSequentialOutcome(t, fmt.Sprintf("random damage %d", i), ringLen, in)
	}
}
