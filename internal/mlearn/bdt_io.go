package mlearn

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// BDT model serialization: a trained tree saved by powpredict must load
// in powserved and produce bit-identical predictions, so the online
// predict endpoint is exactly the offline model. The format is JSON —
// float64 values round-trip exactly through Go's shortest-form encoding —
// with the tree flattened into an explicit node list (no recursion limits
// on load, and malformed files fail with errors, never panics).

// bdtFileVersion guards the on-disk schema.
const bdtFileVersion = 1

// bdtFile is the on-disk model.
type bdtFile struct {
	Format   string     `json:"format"` // "hpcpower-bdt"
	Version  int        `json:"version"`
	Params   TreeParams `json:"params"`
	Fallback float64    `json:"fallback"`
	// Nodes in pre-order; index 0 is the root. Empty means an untrained
	// model (fallback-only).
	Nodes []bdtNode `json:"nodes"`
}

// bdtNode is one serialized tree node. Children are indices into the
// node list (-1 for none); exactly one of Users / numeric split is
// meaningful on interior nodes.
type bdtNode struct {
	Leaf  bool    `json:"leaf"`
	Value float64 `json:"value,omitempty"`
	Std   float64 `json:"std,omitempty"`
	N     int     `json:"n,omitempty"`

	Users     []string `json:"users,omitempty"` // categorical: left if user ∈ Users
	FeatIdx   int      `json:"feat,omitempty"`  // 0 = lnNodes, 1 = lnWall
	Threshold float64  `json:"thr,omitempty"`   // numeric: left if x ≤ thr
	Left      int      `json:"l"`
	Right     int      `json:"r"`
}

// Save writes the fitted model as JSON.
func (t *BDT) Save(w io.Writer) error {
	f := bdtFile{
		Format:   "hpcpower-bdt",
		Version:  bdtFileVersion,
		Params:   t.params,
		Fallback: t.fallback,
	}
	var flatten func(n *treeNode) int
	flatten = func(n *treeNode) int {
		idx := len(f.Nodes)
		f.Nodes = append(f.Nodes, bdtNode{Left: -1, Right: -1})
		e := &f.Nodes[idx]
		if n.isLeaf {
			e.Leaf = true
			e.Value, e.Std, e.N = n.value, n.std, n.n
			return idx
		}
		if n.userSet != nil {
			users := make([]string, 0, len(n.userSet))
			for u := range n.userSet {
				users = append(users, u)
			}
			sort.Strings(users)
			e.Users = users
		} else {
			e.FeatIdx, e.Threshold = n.featIdx, n.threshold
		}
		l := flatten(n.left)
		r := flatten(n.right)
		// f.Nodes may have been reallocated by the recursive appends.
		f.Nodes[idx].Left, f.Nodes[idx].Right = l, r
		return idx
	}
	if t.root != nil {
		flatten(t.root)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("mlearn: saving BDT: %w", err)
	}
	return nil
}

// LoadBDT reads a model written by Save, validating structure so that a
// malformed or adversarial file yields an error, never a panic or an
// ill-formed tree.
func LoadBDT(r io.Reader) (*BDT, error) {
	dec := json.NewDecoder(r)
	var f bdtFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("mlearn: decoding BDT: %w", err)
	}
	if f.Format != "hpcpower-bdt" {
		return nil, fmt.Errorf("mlearn: not a BDT model file (format %q)", f.Format)
	}
	if f.Version != bdtFileVersion {
		return nil, fmt.Errorf("mlearn: BDT model version %d, this build reads version %d", f.Version, bdtFileVersion)
	}
	t := &BDT{params: f.Params, fallback: f.Fallback}
	if len(f.Nodes) == 0 {
		return t, nil
	}
	// Rebuild with an explicit visited set: every node must be reachable
	// exactly once (a tree, not a DAG or a cycle) and children must point
	// forward into the list.
	visited := make([]bool, len(f.Nodes))
	var build func(idx, depth int) (*treeNode, error)
	build = func(idx, depth int) (*treeNode, error) {
		if idx < 0 || idx >= len(f.Nodes) {
			return nil, fmt.Errorf("mlearn: BDT node index %d out of range", idx)
		}
		if visited[idx] {
			return nil, fmt.Errorf("mlearn: BDT node %d referenced twice", idx)
		}
		if depth > len(f.Nodes) {
			return nil, fmt.Errorf("mlearn: BDT deeper than its node count")
		}
		visited[idx] = true
		e := &f.Nodes[idx]
		if e.Leaf {
			if e.N < 0 || e.Std < 0 {
				return nil, fmt.Errorf("mlearn: BDT leaf %d has negative std or count", idx)
			}
			return &treeNode{isLeaf: true, value: e.Value, std: e.Std, n: e.N}, nil
		}
		n := &treeNode{featIdx: e.FeatIdx, threshold: e.Threshold}
		if len(e.Users) > 0 {
			n.userSet = make(map[string]bool, len(e.Users))
			for _, u := range e.Users {
				n.userSet[u] = true
			}
		} else if e.FeatIdx != 0 && e.FeatIdx != 1 {
			return nil, fmt.Errorf("mlearn: BDT node %d has feature index %d", idx, e.FeatIdx)
		}
		var err error
		if n.left, err = build(e.Left, depth+1); err != nil {
			return nil, err
		}
		if n.right, err = build(e.Right, depth+1); err != nil {
			return nil, err
		}
		return n, nil
	}
	root, err := build(0, 0)
	if err != nil {
		return nil, err
	}
	for i, v := range visited {
		if !v {
			return nil, fmt.Errorf("mlearn: BDT node %d unreachable", i)
		}
	}
	t.root = root
	return t, nil
}

// SaveFile writes the model to a file (atomic enough for a model export:
// write then rename is unnecessary — models are read-only after export).
func (t *BDT) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mlearn: %w", err)
	}
	if err := t.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBDTFile reads a model file written by SaveFile.
func LoadBDTFile(path string) (*BDT, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mlearn: %w", err)
	}
	defer f.Close()
	return LoadBDT(f)
}
