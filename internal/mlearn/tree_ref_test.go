package mlearn

import (
	"math"
	"sort"
)

// fitByResorting is the fit BDT.Fit replaced in PR 24, kept as the
// reference the new fitter is compared against: every node copies its rows,
// keys the user sums by name and sorts the rows again for each numeric
// feature. The one difference from that code is sort.SliceStable where it
// had sort.Slice, which fixes the order of rows with equal feature values
// (training order) that pdqsort left unspecified.
func fitByResorting(samples []Sample, p TreeParams) *BDT {
	t := NewBDT(p)
	rows := make([]refRow, len(samples))
	var sum float64
	for i, s := range samples {
		rows[i] = refRow{user: s.User, x: [2]float64{lnNodes(s.Features), lnWall(s.Features)}, y: s.PowerW}
		sum += s.PowerW
	}
	t.fallback = sum / float64(len(samples))
	t.root = refBuild(t.params, rows, 0)
	return t
}

type refRow struct {
	user string
	x    [2]float64
	y    float64
}

type refSplit struct {
	userSet   map[string]bool
	featIdx   int
	threshold float64
	gain      float64
}

func (c *refSplit) goesLeft(r refRow) bool {
	if c.userSet != nil {
		return c.userSet[r.user]
	}
	return r.x[c.featIdx] <= c.threshold
}

func refBuild(p TreeParams, rows []refRow, depth int) *treeNode {
	var sum, sse float64
	for _, r := range rows {
		sum += r.y
	}
	mean := sum / float64(len(rows))
	for _, r := range rows {
		d := r.y - mean
		sse += d * d
	}
	leaf := &treeNode{isLeaf: true, value: mean, std: math.Sqrt(sse / float64(len(rows))), n: len(rows)}
	if depth >= p.MaxDepth || len(rows) < 2*p.MinLeaf || sse <= 1e-12 {
		return leaf
	}
	var best *refSplit
	for _, c := range []*refSplit{refUserSplit(p, rows), refNumericSplit(p, rows, 0), refNumericSplit(p, rows, 1)} {
		if c != nil && (best == nil || c.gain > best.gain) {
			best = c
		}
	}
	if best == nil || best.gain <= 1e-12 {
		return leaf
	}
	var left, right []refRow
	for _, r := range rows {
		if best.goesLeft(r) {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < p.MinLeaf || len(right) < p.MinLeaf {
		return leaf
	}
	return &treeNode{
		userSet: best.userSet, featIdx: best.featIdx, threshold: best.threshold,
		left: refBuild(p, left, depth+1), right: refBuild(p, right, depth+1),
	}
}

func refUserSplit(p TreeParams, rows []refRow) *refSplit {
	type ustat struct {
		user string
		sum  float64
		n    int
	}
	agg := map[string]*ustat{}
	for _, r := range rows {
		u := agg[r.user]
		if u == nil {
			u = &ustat{user: r.user}
			agg[r.user] = u
		}
		u.sum += r.y
		u.n++
	}
	if len(agg) < 2 {
		return nil
	}
	users := make([]*ustat, 0, len(agg))
	for _, u := range agg {
		users = append(users, u)
	}
	sort.Slice(users, func(a, b int) bool {
		ma := users[a].sum / float64(users[a].n)
		mb := users[b].sum / float64(users[b].n)
		if ma != mb {
			return ma < mb
		}
		return users[a].user < users[b].user
	})
	var totalSum float64
	totalN := 0
	for _, u := range users {
		totalSum += u.sum
		totalN += u.n
	}
	bestScore := math.Inf(-1)
	bestK := -1
	var sumL float64
	nL := 0
	for k := 0; k < len(users)-1; k++ {
		sumL += users[k].sum
		nL += users[k].n
		nR := totalN - nL
		if nL < p.MinLeaf || nR < p.MinLeaf {
			continue
		}
		sumR := totalSum - sumL
		score := sumL*sumL/float64(nL) + sumR*sumR/float64(nR)
		if score > bestScore {
			bestScore = score
			bestK = k
		}
	}
	if bestK < 0 {
		return nil
	}
	set := make(map[string]bool, bestK+1)
	for k := 0; k <= bestK; k++ {
		set[users[k].user] = true
	}
	return &refSplit{userSet: set, gain: bestScore - totalSum*totalSum/float64(totalN)}
}

func refNumericSplit(p TreeParams, rows []refRow, feat int) *refSplit {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rows[idx[a]].x[feat] < rows[idx[b]].x[feat] })
	var totalSum float64
	for _, r := range rows {
		totalSum += r.y
	}
	totalN := len(rows)
	bestScore := math.Inf(-1)
	bestThreshold := 0.0
	var sumL float64
	for i := 0; i < totalN-1; i++ {
		r := rows[idx[i]]
		sumL += r.y
		next := rows[idx[i+1]]
		if r.x[feat] == next.x[feat] {
			continue
		}
		nL := i + 1
		nR := totalN - nL
		if nL < p.MinLeaf || nR < p.MinLeaf {
			continue
		}
		sumR := totalSum - sumL
		score := sumL*sumL/float64(nL) + sumR*sumR/float64(nR)
		if score > bestScore {
			bestScore = score
			bestThreshold = (r.x[feat] + next.x[feat]) / 2
		}
	}
	if math.IsInf(bestScore, -1) {
		return nil
	}
	return &refSplit{featIdx: feat, threshold: bestThreshold, gain: bestScore - totalSum*totalSum/float64(totalN)}
}
