package tsdb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/rng"
)

// decodeOutcome decodes in with DecodeNodes at GOMAXPROCS 1 and 4 and
// returns what it arrived at, the error text or the nodes, once both
// agree: however the chunks are spread over workers, the outcome is one.
func decodeOutcome(t *testing.T, name string, ringLen int, in []byte) (string, error) {
	t.Helper()
	var outcome string
	var first error
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := &StoreState{RingLen: ringLen}
		err := got.DecodeNodes(in)
		runtime.GOMAXPROCS(prev)
		o := fmt.Sprintf("%v", got.Nodes)
		if err != nil {
			o = "error: " + err.Error()
			if got.Nodes != nil {
				t.Errorf("%s, GOMAXPROCS %d: a rejected section left %d nodes behind", name, procs, len(got.Nodes))
			}
		}
		if procs == 1 {
			outcome, first = o, err
		} else if o != outcome {
			t.Errorf("%s: GOMAXPROCS 4 arrives at %s, GOMAXPROCS 1 at %s", name, o, outcome)
		}
	}
	return outcome, first
}

// TestDecodeNodesErrorIsSequential: however the chunks are spread over
// workers, a damaged section is refused with the error a node-by-node
// decoder stops at — the lowest bad node's, chunk damage before any
// framing damage behind it, trailing bytes last. The outcomes of every
// case and of 500 randomly damaged sections hash to the value they had
// when the node-by-node decoder was the reference they were checked
// against; re-pin only for a change that means to alter an error.
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
	h := sha256.New()
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
		outcome, err := decodeOutcome(t, tc.name, ringLen, tc.in)
		fmt.Fprintln(h, outcome)
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
		outcome, _ := decodeOutcome(t, fmt.Sprintf("random damage %d", i), ringLen, in)
		fmt.Fprintln(h, outcome)
	}
	const want = "d0617494aad5ccc042e1c5ba931086d4cad641106ff516e636446ea50ea132a1"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("the outcomes hash to %s, want %s", got, want)
	}
}
