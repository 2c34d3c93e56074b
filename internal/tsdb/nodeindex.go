package tsdb

// nodeIndex holds one shard's node rings: an open-addressed table of
// parallel keys and rings, a power of two slots long and at most half
// full, probed linearly. A nil ring marks a free slot, and nodes are
// never removed, so a probe ends at the node's slot or at the first
// free one.
//
// The probe starts from mix(node) >> shift, shift being the store's
// shard bits: the low bits of the hash chose the shard, so every node
// of a shard has the same ones, and the bits above them spread the
// shard's nodes over its slots. Append hashes a sample once and hands
// that hash to both.
type nodeIndex struct {
	keys  []int
	rings []*ring
	n     int  // rings held
	shift uint // bits of the hash the shard took
}

// minIndexSlots is a new index's length.
const minIndexSlots = 8

// newNodeIndex returns an empty index that holds n rings before it
// first grows.
func newNodeIndex(n int, shift uint) nodeIndex {
	slots := minIndexSlots
	for slots < 2*n {
		slots <<= 1
	}
	return nodeIndex{keys: make([]int, slots), rings: make([]*ring, slots), shift: shift}
}

// get returns node's ring, nil if it has none; h is mix(node).
func (x *nodeIndex) get(node int, h uint64) *ring {
	m := uint64(len(x.rings) - 1)
	for i := (h >> x.shift) & m; ; i = (i + 1) & m {
		if r := x.rings[i]; r == nil || x.keys[i] == node {
			return r
		}
	}
}

// lookup is get for a caller that has not hashed node.
func (x *nodeIndex) lookup(node int) *ring { return x.get(node, mix(uint64(node))) }

// put makes r the ring of node; h is mix(node).
func (x *nodeIndex) put(node int, h uint64, r *ring) {
	if 2*(x.n+1) > len(x.rings) {
		x.grow()
	}
	if x.place(node, h, r) {
		x.n++
	}
}

// place writes r into node's slot, or into the first free one if node
// has none, and reports whether it took a free one.
func (x *nodeIndex) place(node int, h uint64, r *ring) bool {
	m := uint64(len(x.rings) - 1)
	i := (h >> x.shift) & m
	for x.rings[i] != nil && x.keys[i] != node {
		i = (i + 1) & m
	}
	free := x.rings[i] == nil
	x.keys[i], x.rings[i] = node, r
	return free
}

// grow doubles the table and places every ring again.
func (x *nodeIndex) grow() {
	keys, rings := x.keys, x.rings
	x.keys, x.rings = make([]int, 2*len(keys)), make([]*ring, 2*len(rings))
	for i, r := range rings {
		if r != nil {
			x.place(keys[i], mix(uint64(keys[i])), r)
		}
	}
}
