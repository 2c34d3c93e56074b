package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"hpcpower/internal/block"
)

// Binary form of StoreState.Nodes — the rings, which are all but a few
// percent of a snapshot's bytes. The snapshot image (internal/serve)
// writes the rest of the state itself and this section last:
//
//	uvarint nodeCount
//	nodeCount × { uvarint node, u32le chunkLen, chunk }
//
// in ascending node order, the order ExportState writes. chunk is an
// internal/block raw chunk (uvarint point count, then delta-of-delta
// timestamps interleaved with XOR-compressed values, lossless to the
// bit), holding the ring's points oldest first.

// minNodeBytes is the least one node can occupy: a one-byte id, the
// chunk length, and the one-byte header of an empty chunk.
const minNodeBytes = 1 + 4 + 1

// AppendNodes appends the binary form of st.Nodes to dst.
func (st *StoreState) AppendNodes(dst []byte) []byte {
	points := 0
	for i := range st.Nodes {
		points += len(st.Nodes[i].Points)
	}
	// Regular one-minute series at sensor resolution take about seven
	// bytes a point; growing once up front spares the doubling copies.
	dst = slices.Grow(dst, 16*len(st.Nodes)+8*points)
	dst = binary.AppendUvarint(dst, uint64(len(st.Nodes)))
	var enc block.ChunkEncoder
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		dst = binary.AppendUvarint(dst, uint64(ns.Node))
		lenAt := len(dst)
		enc.Reset(append(dst, 0, 0, 0, 0), len(ns.Points))
		for _, p := range ns.Points {
			enc.Add(p.Unix, p.PowerW)
		}
		dst = enc.Bytes()
		binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst
}

// DecodeNodes parses a section AppendNodes wrote into st.Nodes, each
// ring decoded straight into the slice the store will keep. Arbitrary
// bytes yield an error, never a panic, and never an allocation beyond a
// fixed multiple of len(b): every count is checked against the bytes
// that are left before anything is sized by it. Node ids must ascend
// strictly, no ring may hold more than st.RingLen points, and nothing
// may follow the last node.
//
// The framing is walked once; the chunks, which are where the time goes,
// are then decoded by up to GOMAXPROCS workers over contiguous node
// ranges. The error is the one a node-by-node decoder would stop at: the
// bad chunk of the lowest node, before any framing error behind it.
func (st *StoreState) DecodeNodes(b []byte) error {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("tsdb: nodes section: bad node count")
	}
	b = b[n:]
	if count > uint64(len(b))/minNodeBytes {
		return fmt.Errorf("tsdb: nodes section claims %d nodes in %d bytes", count, len(b))
	}
	var nodes []NodeState // nil for an empty store, as ExportState leaves it
	if count > 0 {
		nodes = make([]NodeState, count)
	}
	// framed nodes have an id in nodes and a chunk in chunks; framingErr is
	// why the walk stopped short of count.
	chunks := make([][]byte, 0, count)
	var framingErr error
	prev := -1
	for i := range nodes {
		id, n := binary.Uvarint(b)
		if n <= 0 || id > math.MaxInt || len(b)-n < 4 {
			framingErr = fmt.Errorf("tsdb: nodes section: node %d of %d is cut short or has a bad id", i, count)
			break
		}
		if int(id) <= prev {
			framingErr = fmt.Errorf("tsdb: nodes section: node %d after node %d, want strictly ascending ids", id, prev)
			break
		}
		prev = int(id)
		chunkLen := binary.LittleEndian.Uint32(b[n:])
		b = b[n+4:]
		if uint64(chunkLen) > uint64(len(b)) {
			framingErr = fmt.Errorf("tsdb: nodes section: node %d claims a %d-byte chunk, %d bytes left", id, chunkLen, len(b))
			break
		}
		nodes[i].Node = int(id)
		chunks = append(chunks, b[:chunkLen])
		b = b[chunkLen:]
	}

	// Ranges ascend with the worker index, so the first worker with an
	// error holds the lowest bad node. The first range is decoded here.
	workers := max(1, min(runtime.GOMAXPROCS(0), len(chunks)))
	errs := make([]error, workers)
	decode := func(w int) {
		lo, hi := w*len(chunks)/workers, (w+1)*len(chunks)/workers
		errs[w] = st.decodeRings(nodes[lo:hi], chunks[lo:hi])
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			decode(w)
		}()
	}
	decode(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if framingErr != nil {
		return framingErr
	}
	if len(b) != 0 {
		return fmt.Errorf("tsdb: nodes section: %d bytes after the last node", len(b))
	}
	st.Nodes = nodes
	return nil
}

// decodeRings fills nodes[i].Points from chunks[i], stopping at the first
// chunk that will not decode or that holds more than a ring. Each ring
// gets a slice of its point count, which InstallState adopts as the
// ring's buffer: Init has bounded the count by the chunk's own bytes.
func (st *StoreState) decodeRings(nodes []NodeState, chunks [][]byte) error {
	var r block.ChunkReader
	for i, chunk := range chunks {
		id := nodes[i].Node
		if err := r.Init(chunk); err != nil {
			return fmt.Errorf("tsdb: nodes section: node %d: %w", id, err)
		}
		if r.Left() > st.RingLen {
			return fmt.Errorf("tsdb: nodes section: node %d holds %d points, ring length is %d", id, r.Left(), st.RingLen)
		}
		pts := make([]Point, r.Left())
		late, prev := 0, int64(math.MinInt64) // as lateIndex would find it
		for j := 0; j < len(pts); {
			n, err := r.Next(math.MaxInt64)
			if err != nil {
				return fmt.Errorf("tsdb: nodes section: node %d: %w", id, err)
			}
			for k, t := range r.T[:n] {
				if t < prev {
					late = j + k
				}
				prev = t
				pts[j+k] = Point{Unix: t, PowerW: r.V[k]}
			}
			j += n
		}
		nodes[i].Points, nodes[i].sinceLate = pts, len(pts)-late
	}
	return nil
}
