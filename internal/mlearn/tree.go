package mlearn

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// TreeParams tunes the CART regression tree.
type TreeParams struct {
	MaxDepth int // maximum tree depth
	MinLeaf  int // minimum samples per leaf
}

// DefaultTreeParams returns the parameters used for Fig. 14.
func DefaultTreeParams() TreeParams { return TreeParams{MaxDepth: 22, MinLeaf: 1} }

// BDT is the paper's Binary Decision Tree: a CART regression tree over
// (user, nodes, walltime). The user feature is categorical and split by
// target-mean ordering (the optimal categorical split for squared error);
// nodes and walltime are numeric log-scaled features. In practice the
// tree splits on user first — the explicit hierarchy the paper describes —
// because user explains the most variance.
type BDT struct {
	params TreeParams
	root   *treeNode
	// fallback is the global training mean, used for unseen users when no
	// better route exists.
	fallback float64
}

// treeNode is one node of the fitted tree.
type treeNode struct {
	// leaf
	isLeaf bool
	value  float64
	std    float64 // std of training targets in the leaf
	n      int     // training samples in the leaf
	// split: exactly one of userSet (categorical) or numeric split is set.
	userSet   map[string]bool // non-nil: left if userSet[user]
	featIdx   int             // 0 = lnNodes, 1 = lnWall (when userSet == nil)
	threshold float64         // left if x <= threshold
	left      *treeNode
	right     *treeNode
}

// NewBDT returns an untrained tree.
func NewBDT(p TreeParams) *BDT {
	if p.MaxDepth <= 0 {
		p.MaxDepth = 18
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 2
	}
	return &BDT{params: p}
}

// Name implements Model.
func (t *BDT) Name() string { return "BDT" }

// Fit implements Model.
func (t *BDT) Fit(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("mlearn: BDT fit on empty training set")
	}
	f := newTreeFitter(samples, t.params)
	var sum float64
	for _, y := range f.y {
		sum += y
	}
	t.fallback = sum / float64(len(samples))
	t.root = f.build(0, len(samples), 0)
	return nil
}

// treeFitter is the working state of one Fit: the samples as columns, and
// three orders of the training rows. Every node of the tree owns the same
// window [lo, hi) of all three; splitting a node partitions the three
// windows stably, so its children find their rows already in training order
// and in ascending order of each feature (equal values in training order),
// and nothing below the root sorts rows or allocates more than the nodes.
//
// Floating-point sums are not associative and the saved tree is compared
// byte for byte, so the orders are part of the result: node sums and
// per-user sums run in training order, prefix sums in sorted order.
type treeFitter struct {
	params TreeParams
	y      []float64
	x      [2][]float64 // ln nodes, ln wall
	user   []int32      // index into names
	names  []string     // distinct users, sorted
	// order[0] is training order; order[1+f] is ascending x[f].
	order    [3][]int32
	scratch  []int32 // the right-hand rows of the window being partitioned
	goesLeft []bool  // by row, valid for the node being split

	// Per-user sums of the node being searched, the users it has, and —
	// set when the user split wins — each one's place among them.
	userSum  []float64
	userN    []int32
	users    []int32
	userRank []int32
}

func newTreeFitter(samples []Sample, p TreeParams) *treeFitter {
	n := len(samples)
	number := map[string]int32{}
	for i := range samples {
		number[samples[i].User] = 0
	}
	names := make([]string, 0, len(number))
	for u := range number {
		names = append(names, u)
	}
	slices.Sort(names)
	for i, u := range names {
		number[u] = int32(i)
	}
	f := &treeFitter{
		params: p, names: names,
		y: make([]float64, n), x: [2][]float64{make([]float64, n), make([]float64, n)}, user: make([]int32, n),
		order:   [3][]int32{make([]int32, n), make([]int32, n), make([]int32, n)},
		scratch: make([]int32, n), goesLeft: make([]bool, n),
		userSum: make([]float64, len(names)), userN: make([]int32, len(names)),
		users: make([]int32, 0, len(names)), userRank: make([]int32, len(names)),
	}
	for i := range samples {
		s := &samples[i]
		f.y[i], f.user[i] = s.PowerW, number[s.User]
		f.order[0][i] = int32(i)
	}
	f.orderFeatures(samples)
	return f
}

// orderFeatures fills both feature columns and orders each by counting:
// node counts and requested walltimes repeat, so a fit sees a few dozen
// distinct values. Each distinct raw value gets a slot and its log once;
// the slots are ranked by cmp.Compare on their logs, raw values with one
// log (Nodes <= 1, WallHours <= 0.1, every NaN) sharing a rank; and the
// rows are placed by rank in training order. That is ascending x with
// equal values in training order, NaN first: the order a stable
// comparison sort on (x, row) gives.
func (f *treeFitter) orderFeatures(samples []Sample) {
	slotOf := f.scratch // free until build partitions
	slot := map[float64]int32{}
	var logs []float64
	for feat, ln := range [2]func(Features) float64{lnNodes, lnWall} {
		clear(slot)
		logs = logs[:0]
		for i := range samples {
			s := samples[i].Features
			v := s.WallHours
			if feat == 0 {
				v = float64(s.Nodes)
			}
			k, ok := slot[v]
			if !ok { // a NaN is never found again: each gets its own slot
				k = int32(len(logs))
				slot[v] = k
				logs = append(logs, ln(s))
			}
			slotOf[i], f.x[feat][i] = k, logs[k]
		}
		byLog := make([]int32, len(logs))
		for k := range byLog {
			byLog[k] = int32(k)
		}
		slices.SortFunc(byLog, func(a, b int32) int { return cmp.Compare(logs[a], logs[b]) })
		// rank[k] is slot k's place among the distinct logs; next[r] is
		// where the next row of rank r goes.
		rank, next := make([]int32, len(logs)), make([]int32, len(logs)+1)
		r := int32(0)
		for i, k := range byLog {
			if i > 0 && cmp.Compare(logs[byLog[i-1]], logs[k]) != 0 {
				r++
			}
			rank[k] = r
		}
		for _, k := range slotOf {
			next[rank[k]+1]++
		}
		for j := 1; j < len(next); j++ {
			next[j] += next[j-1]
		}
		order := f.order[1+feat]
		for i, k := range slotOf {
			order[next[rank[k]]] = int32(i)
			next[rank[k]]++
		}
	}
}

// build grows the subtree over the window [lo, hi).
func (f *treeFitter) build(lo, hi, depth int) *treeNode {
	rows, n, minLeaf := f.order[0][lo:hi], hi-lo, f.params.MinLeaf
	var sum, sse float64
	for _, r := range rows {
		sum += f.y[r]
	}
	mean := sum / float64(n)
	for _, r := range rows {
		d := f.y[r] - mean
		sse += d * d
	}
	node := &treeNode{isLeaf: true, value: mean, std: math.Sqrt(sse / float64(n)), n: n}
	if depth >= f.params.MaxDepth || n < 2*minLeaf || sse <= 1e-12 {
		return node
	}

	// The candidates in the order user, nodes, wall; a later one wins only
	// with a strictly greater SSE reduction. feat -1 is the user split.
	gain, k, found := f.userSplit(rows)
	feat, threshold := -1, 0.0
	for nf := range f.x {
		if g, thr, ok := f.numericSplit(nf, lo, hi, sum); ok && (!found || g > gain) {
			gain, feat, threshold, found = g, nf, thr, true
		}
	}
	if !found || gain <= 1e-12 {
		return node
	}

	nL := 0
	if feat < 0 {
		for i, u := range f.users {
			f.userRank[u] = int32(i)
		}
		for _, r := range rows {
			f.goesLeft[r] = int(f.userRank[f.user[r]]) <= k
		}
	} else {
		for _, r := range rows {
			f.goesLeft[r] = f.x[feat][r] <= threshold
		}
	}
	for _, r := range rows {
		if f.goesLeft[r] {
			nL++
		}
	}
	if nL < minLeaf || n-nL < minLeaf {
		return node
	}
	*node = treeNode{featIdx: max(feat, 0), threshold: threshold}
	if feat < 0 {
		node.userSet = make(map[string]bool, k+1)
		for _, u := range f.users[:k+1] {
			node.userSet[f.names[u]] = true
		}
	}
	for _, order := range f.order {
		w, nl, nr := order[lo:hi], 0, 0
		for _, r := range w {
			if f.goesLeft[r] {
				w[nl] = r
				nl++
			} else {
				f.scratch[nr] = r
				nr++
			}
		}
		copy(w[nl:], f.scratch[:nr])
	}
	node.left = f.build(lo, lo+nL, depth+1)
	node.right = f.build(lo+nL, hi, depth+1)
	return node
}

// userSplit orders the node's users by mean target and scans prefix
// partitions — the optimal subset split for L2 loss (Fisher 1958 / CART).
// It leaves the ordered users in f.users; the best split sends
// f.users[:k+1] left.
func (f *treeFitter) userSplit(rows []int32) (gain float64, k int, ok bool) {
	// Clear the sums of the node searched before this one.
	for _, u := range f.users {
		f.userSum[u], f.userN[u] = 0, 0
	}
	f.users = f.users[:0]
	for _, r := range rows {
		u := f.user[r]
		if f.userN[u] == 0 {
			f.users = append(f.users, u)
		}
		f.userSum[u] += f.y[r]
		f.userN[u]++
	}
	if len(f.users) < 2 {
		return 0, 0, false
	}
	slices.SortFunc(f.users, func(a, b int32) int {
		ma, mb := f.userSum[a]/float64(f.userN[a]), f.userSum[b]/float64(f.userN[b])
		if ma != mb {
			return cmp.Compare(ma, mb)
		}
		return cmp.Compare(a, b) // by name: users are numbered in name order
	})
	var totalSum float64
	for _, u := range f.users {
		totalSum += f.userSum[u]
	}
	// SSE(left)+SSE(right) is minimized by maximizing
	// sumL^2/nL + sumR^2/nR (standard variance-reduction identity).
	bestScore, k := math.Inf(-1), -1
	var sumL float64
	nL := 0
	for i, u := range f.users[:len(f.users)-1] {
		sumL += f.userSum[u]
		nL += int(f.userN[u])
		nR := len(rows) - nL
		if nL < f.params.MinLeaf || nR < f.params.MinLeaf {
			continue
		}
		sumR := totalSum - sumL
		if score := sumL*sumL/float64(nL) + sumR*sumR/float64(nR); score > bestScore {
			bestScore, k = score, i
		}
	}
	// gain = parentSSE − (SSE_L + SSE_R) = bestScore − totalSum²/totalN.
	return bestScore - totalSum*totalSum/float64(len(rows)), k, k >= 0
}

// numericSplit scans thresholds between consecutive distinct values of
// feature feat; totalSum is the window's target sum.
func (f *treeFitter) numericSplit(feat, lo, hi int, totalSum float64) (gain, threshold float64, ok bool) {
	x, idx, n := f.x[feat], f.order[1+feat][lo:hi], hi-lo
	bestScore := math.Inf(-1)
	var sumL float64
	for i, r := range idx[:n-1] {
		sumL += f.y[r]
		v, next := x[r], x[idx[i+1]]
		if v == next {
			continue // not a valid threshold between equal values
		}
		nL, nR := i+1, n-i-1
		if nL < f.params.MinLeaf || nR < f.params.MinLeaf {
			continue
		}
		sumR := totalSum - sumL
		if score := sumL*sumL/float64(nL) + sumR*sumR/float64(nR); score > bestScore {
			bestScore, threshold = score, (v+next)/2
		}
	}
	return bestScore - totalSum*totalSum/float64(n), threshold, !math.IsInf(bestScore, -1)
}

// leafFor walks the fitted tree down to the leaf f falls in.
func (t *BDT) leafFor(f Features) *treeNode {
	x := [2]float64{lnNodes(f), lnWall(f)}
	node := t.root
	for !node.isLeaf {
		var left bool
		if node.userSet != nil {
			left = node.userSet[f.User]
		} else {
			left = x[node.featIdx] <= node.threshold
		}
		if left {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node
}

// Predict implements Model.
func (t *BDT) Predict(f Features) float64 {
	if t.root == nil {
		return t.fallback
	}
	return t.leafFor(f).value
}

// PredictWithStd returns the prediction together with the std of the
// training targets in the matched leaf and the leaf's sample count — an
// uncertainty estimate operators can use to size per-job cap headroom
// (a cap at prediction + k·std bounds throttling risk).
func (t *BDT) PredictWithStd(f Features) (pred, std float64, n int) {
	if t.root == nil {
		return t.fallback, 0, 0
	}
	leaf := t.leafFor(f)
	return leaf.value, leaf.std, leaf.n
}

// Depth returns the fitted tree's depth (diagnostics, ablations).
func (t *BDT) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.isLeaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves returns the number of leaves (diagnostics, ablations).
func (t *BDT) Leaves() int { return leavesOf(t.root) }

func leavesOf(n *treeNode) int {
	if n == nil {
		return 0
	}
	if n.isLeaf {
		return 1
	}
	return leavesOf(n.left) + leavesOf(n.right)
}
