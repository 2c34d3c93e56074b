package mlearn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"testing"

	"hpcpower/internal/gen"
	"hpcpower/internal/rng"
)

// savedTree is t as Save writes it.
func savedTree(tb testing.TB, t *BDT) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := t.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkFitMatchesResorting fits data both ways and compares the saved trees.
func checkFitMatchesResorting(tb testing.TB, data []Sample, p TreeParams) *BDT {
	tb.Helper()
	m := NewBDT(p)
	if err := m.Fit(data); err != nil {
		tb.Fatal(err)
	}
	got, want := savedTree(tb, m), savedTree(tb, fitByResorting(data, p))
	if !bytes.Equal(got, want) {
		tb.Errorf("%d samples, %+v: Fit saved %d bytes (%d leaves), the per-node resorting fit %d bytes differing from byte %d",
			len(data), p, len(got), m.Leaves(), len(want), firstDifference(got, want))
	}
	return m
}

func firstDifference(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestBDTFitMatchesResorting: ordering each feature once and partitioning
// the orders gives the tree that sorting every node's rows gave, to the
// byte — on the generated systems, where node counts and walltimes repeat
// heavily, and on the sets where one kind of split has nothing to offer.
func TestBDTFitMatchesResorting(t *testing.T) {
	sets := map[string][]Sample{}
	for _, seed := range []uint64{42, 43, 7} {
		for name, cfg := range map[string]gen.Config{"Emmy": gen.EmmyConfig(0.03, seed), "Meggie": gen.MeggieConfig(0.03, seed)} {
			ds, err := gen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			data := SamplesFromDataset(ds)
			sets[fmt.Sprintf("%s/seed=%d", name, seed)] = data
			// A training split: the order Evaluate fits in is a shuffle.
			sets[fmt.Sprintf("%s/seed=%d/train", name, seed)] = StratifiedSplit(data, 0.2, rng.New(seed)).Train
		}
	}
	emmy := sets["Emmy/seed=42"]
	oneUser, sameFeatures, masked := make([]Sample, len(emmy)), make([]Sample, len(emmy)), make([]Sample, len(emmy))
	for i, s := range emmy {
		oneUser[i], sameFeatures[i], masked[i] = s, s, s
		oneUser[i].User = "u001"
		sameFeatures[i].Nodes, sameFeatures[i].WallHours = 4, 6
		masked[i].Features = FeatureSet{Nodes: true, Wall: true}.mask(s.Features)
	}
	sets["one user"], sets["equal features"], sets["masked user"] = oneUser, sameFeatures, masked
	sets["noisy synthetic"] = synthetic(2000, 0.02, 11)

	for name, data := range sets {
		for _, p := range []TreeParams{DefaultTreeParams(), {MaxDepth: 6, MinLeaf: 5}} {
			t.Run(fmt.Sprintf("%s/depth=%d", name, p.MaxDepth), func(t *testing.T) {
				checkFitMatchesResorting(t, data, p)
			})
		}
	}
}

// TestBDTFitPinned pins the tree itself: the SHA-256 of the saved
// model fitted on Emmy at a tenth of the study, seed 42 (the served model
// of the benchmark's setup). Re-pin only for a change that means to alter
// the fitted tree. The hash was taken on amd64: elsewhere the compiler may
// fuse d*d into the sum and math.Log has its own implementation, which
// moves last bits; TestBDTFitMatchesResorting is the portable check.
func TestBDTFitPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hash pinned on amd64, this is %s", runtime.GOARCH)
	}
	m := NewBDT(DefaultTreeParams())
	if err := m.Fit(benchSamples(t)); err != nil {
		t.Fatal(err)
	}
	const want = "7c5064dc4b25a9ec65512ba68994a3ee9c0655b0120196eb17e9aba4cca868dc"
	if got := fmt.Sprintf("%x", sha256.Sum256(savedTree(t, m))); got != want {
		t.Errorf("saved Emmy tree (scale 0.1, seed 42, %d leaves, depth %d) hashes to %s, want %s", m.Leaves(), m.Depth(), got, want)
	}
}

// TestBDTFitNaNWallPinned pins the tree fitted on a small set with NaN
// walltimes beside walltimes and node counts that share a log: the fit
// orders NaN first, as cmp.Compare does. fitByResorting orders with <,
// under which NaN is unordered, so this set is pinned by hash instead.
func TestBDTFitNaNWallPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hash pinned on amd64, this is %s", runtime.GOARCH)
	}
	data := synthetic(240, 0.02, 5)
	for i := range data {
		switch i % 7 {
		case 1:
			data[i].WallHours = math.NaN()
		case 3:
			data[i].Nodes, data[i].WallHours = 0, 0.1
		case 5:
			data[i].Nodes, data[i].WallHours = 1, 0.05
		}
	}
	for p, want := range map[TreeParams]string{
		DefaultTreeParams():       "ab0b621761a3e516863247beb140b2f58edf8f8262f6b7c711551d1a06fde0fc",
		{MaxDepth: 4, MinLeaf: 3}: "bf0fa3177d5404be296f2d23c737e4c6ae446e9ba614e5eb48f950be392a6660",
	} {
		m := NewBDT(p)
		if err := m.Fit(data); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(savedTree(t, m))); got != want {
			t.Errorf("%+v: saved tree (%d leaves) hashes to %s, want %s", p, m.Leaves(), got, want)
		}
	}
}

// FuzzBDTFit draws small training sets from a few users, node counts,
// walltimes and power levels, so that equal feature values, equal user
// means and leaves at the MinLeaf edge are the rule: the fitter must save
// the reference's tree, and the saved tree must load and predict as the
// fitted one does.
func FuzzBDTFit(f *testing.F) {
	f.Add([]byte("\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee\xff"), uint8(1), uint8(22))
	f.Add([]byte("aaaaaaaabbbbbbbbaaaaaaaacccccccc"), uint8(3), uint8(4))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 255, 254, 253, 252}, uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, minLeaf, maxDepth uint8) {
		if len(raw) == 0 || len(raw) > 256 {
			return
		}
		// Nodes 0 and 1 share a log, as do WallHours 0.05 and 0.1: an even
		// row draws from the first four values, an odd row from the last four.
		users := []string{"u1", "u2", "u3", "*"}
		nodes := []int{0, 1, 2, 4, 64}
		walls := []float64{0.05, 0.1, 1, 6, 24}
		data := make([]Sample, len(raw))
		for i, b := range raw {
			data[i] = Sample{
				Features: Features{User: users[b&3], Nodes: nodes[int(b>>2&3)+i%2], WallHours: walls[int(b>>4&3)+i%2]},
				PowerW:   100 + 25*float64(b>>6) + float64(i%3),
			}
		}
		m := checkFitMatchesResorting(t, data, TreeParams{MaxDepth: int(maxDepth%24) + 1, MinLeaf: int(minLeaf%8) + 1})
		loaded, err := LoadBDT(bytes.NewReader(savedTree(t, m)))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range data {
			if got, want := loaded.Predict(s.Features), m.Predict(s.Features); got != want {
				t.Fatalf("loaded tree predicts %v for %+v, fitted tree %v", got, s.Features, want)
			}
		}
	})
}
