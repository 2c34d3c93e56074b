package users

import (
	"math"
	"sort"
	"testing"
	"time"

	"hpcpower/internal/cluster"
	"hpcpower/internal/rng"
	"hpcpower/internal/stats"
)

func emmyPop(t *testing.T, seed uint64) *Population {
	t.Helper()
	spec := cluster.Emmy()
	pop, err := NewPopulation(spec, DefaultParams(spec), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestPopulationShape(t *testing.T) {
	pop := emmyPop(t, 1)
	if len(pop.Users) != 190 {
		t.Fatalf("users = %d", len(pop.Users))
	}
	ids := map[string]bool{}
	for _, u := range pop.Users {
		if ids[u.ID] {
			t.Errorf("duplicate user id %s", u.ID)
		}
		ids[u.ID] = true
		if len(u.Configs) < 2 || len(u.Configs) > 9 {
			t.Errorf("%s has %d configs", u.ID, len(u.Configs))
		}
		if u.Activity <= 0 {
			t.Errorf("%s activity %v", u.ID, u.Activity)
		}
		for _, c := range u.Configs {
			if c.Nodes <= 0 || c.ReqWall <= 0 || c.PowerTilt <= 0 {
				t.Errorf("%s bad config %+v", u.ID, c)
			}
			if c.WallUseMean < 0.15 || c.WallUseMean > 0.98 {
				t.Errorf("%s wall use %v", u.ID, c.WallUseMean)
			}
			inLadder := false
			for _, n := range nodeLadder {
				if c.Nodes == n {
					inLadder = true
				}
			}
			if !inLadder {
				t.Errorf("config nodes %d not on the request ladder", c.Nodes)
			}
		}
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a, b := emmyPop(t, 5), emmyPop(t, 5)
	for i := range a.Users {
		if a.Users[i].Activity != b.Users[i].Activity {
			t.Fatalf("user %d activity differs", i)
		}
		for c := range a.Users[i].Configs {
			if a.Users[i].Configs[c] != b.Users[i].Configs[c] {
				t.Fatalf("user %d config %d differs", i, c)
			}
		}
	}
}

func TestActivityConcentration(t *testing.T) {
	// The activity distribution must be heavy-tailed enough that the top
	// 20% of users hold the lion's share — the precondition for Fig. 11.
	pop := emmyPop(t, 2)
	acts := make([]float64, len(pop.Users))
	for i, u := range pop.Users {
		acts[i] = u.Activity
	}
	share := stats.NewConcentration(acts).TopShare(0.2)
	if share < 0.6 {
		t.Errorf("top-20%% activity share = %v, want >= 0.6", share)
	}
}

func TestSampleUserFollowsActivity(t *testing.T) {
	pop := emmyPop(t, 3)
	src := rng.New(99)
	counts := map[string]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[pop.SampleUser(src).ID]++
	}
	// The most active user must be sampled far more often than the median.
	type uc struct {
		act float64
		cnt int
	}
	var all []uc
	for i, u := range pop.Users {
		_ = i
		all = append(all, uc{u.Activity, counts[u.ID]})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].act > all[b].act })
	if all[0].cnt < 10*all[len(all)/2].cnt {
		t.Errorf("sampling does not track activity: top=%d median=%d", all[0].cnt, all[len(all)/2].cnt)
	}
}

func TestSampleConfigMostlyRepertoire(t *testing.T) {
	pop := emmyPop(t, 4)
	u := &pop.Users[0]
	src := rng.New(7)
	inRep := 0
	const n = 5000
	for i := 0; i < n; i++ {
		cfg := u.SampleConfig(src, 0.5)
		for _, c := range u.Configs {
			if cfg == c {
				inRep++
				break
			}
		}
	}
	frac := float64(inRep) / n
	if frac < 0.85 {
		t.Errorf("repertoire fraction = %v, want >= 0.85 (explore=%v)", frac, u.Explore)
	}
	if frac == 1 {
		t.Error("exploration never happened")
	}
}

func TestRepertoireZipfWeights(t *testing.T) {
	pop := emmyPop(t, 6)
	for _, u := range pop.Users {
		for i := 1; i < len(u.Configs); i++ {
			if u.Configs[i].Weight > u.Configs[i-1].Weight {
				t.Fatalf("%s config weights not decreasing", u.ID)
			}
		}
	}
}

func TestMeggieMoreDiverse(t *testing.T) {
	// Meggie's parameters must produce wider within-user spreads of node
	// counts than Emmy's (the paper: node-count variability 55% vs 40%).
	emmy, meggie := cluster.Emmy(), cluster.Meggie()
	pe, err := NewPopulation(emmy, DefaultParams(emmy), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPopulation(meggie, DefaultParams(meggie), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	spread := func(p *Population) float64 {
		var cvs []float64
		for _, u := range p.Users {
			var nodes []float64
			for _, c := range u.Configs {
				nodes = append(nodes, float64(c.Nodes))
			}
			if cv := stats.CV(nodes); !math.IsNaN(cv) {
				cvs = append(cvs, cv)
			}
		}
		return stats.Mean(cvs)
	}
	se, sm := spread(pe), spread(pm)
	if !(sm > se) {
		t.Errorf("Meggie config diversity %v <= Emmy %v", sm, se)
	}
}

func TestDefaultParams(t *testing.T) {
	pe := DefaultParams(cluster.Emmy())
	pm := DefaultParams(cluster.Meggie())
	if pe.NumUsers <= pm.NumUsers {
		t.Error("Emmy (general purpose) should have more users than Meggie")
	}
	if pm.Diversity <= pe.Diversity {
		t.Error("Meggie should have higher diversity")
	}
}

func TestNewPopulationRejects(t *testing.T) {
	spec := cluster.Emmy()
	if _, err := NewPopulation(spec, Params{NumUsers: 0, ConfigsMin: 1, ConfigsMax: 2}, rng.New(1)); err == nil {
		t.Error("zero users accepted")
	}
	if _, err := NewPopulation(spec, Params{NumUsers: 5, ConfigsMin: 3, ConfigsMax: 2}, rng.New(1)); err == nil {
		t.Error("inverted config bounds accepted")
	}
}

func TestSnapHelpers(t *testing.T) {
	if got := snapInt([]int{1, 2, 4, 8}, 3.1); got != 4 && got != 2 {
		t.Errorf("snapInt(3.1) = %d", got)
	}
	if got := snapInt([]int{1, 2, 4, 8}, 100); got != 8 {
		t.Errorf("snapInt(100) = %d", got)
	}
	if got := snapInt([]int{1, 2, 4, 8}, 0); got != 1 {
		t.Errorf("snapInt(0) = %d", got)
	}
	if got := snapFloat([]float64{1, 24, 72}, 30); got != 24 {
		t.Errorf("snapFloat(30) = %v", got)
	}
}

func TestWallLadderValues(t *testing.T) {
	wl := wallLadder
	if wl[0] != 1 || wl[len(wl)-1] != 72 {
		t.Errorf("wall ladder = %v", wl)
	}
	for _, u := range emmyPop(t, 8).Users {
		for _, c := range u.Configs {
			h := c.ReqWall.Hours()
			found := false
			for _, w := range wl {
				if math.Abs(h-w) < 1e-9 {
					found = true
				}
			}
			if !found {
				t.Fatalf("walltime %v h not on ladder", h)
			}
		}
	}
}

func TestConfigReqWallDuration(t *testing.T) {
	pop := emmyPop(t, 9)
	for _, u := range pop.Users {
		for _, c := range u.Configs {
			if c.ReqWall < time.Hour || c.ReqWall > 72*time.Hour {
				t.Fatalf("req wall out of range: %v", c.ReqWall)
			}
		}
	}
}

func TestClassPreferenceStructure(t *testing.T) {
	src := rng.New(33)
	// Low diversity: the main class dominates heavily.
	prefs := classPreference(src, 0.1)
	if len(prefs) != 4 {
		t.Fatalf("prefs = %v", prefs)
	}
	var mainCount int
	for _, v := range prefs {
		if v == 1 {
			mainCount++
		}
		if v <= 0 {
			t.Fatalf("non-positive preference: %v", prefs)
		}
	}
	if mainCount != 1 {
		t.Errorf("expected exactly one main class, got %d", mainCount)
	}
	// High diversity widens the off-class weights on average.
	sumOff := func(d float64) float64 {
		var s float64
		for i := 0; i < 500; i++ {
			p := classPreference(src, d)
			for _, v := range p {
				if v != 1 {
					s += v
				}
			}
		}
		return s
	}
	if !(sumOff(1.0) > sumOff(0.1)) {
		t.Error("diversity does not widen class mixing")
	}
}

func TestRepertoireSizeScalesWithActivity(t *testing.T) {
	pop := emmyPop(t, 21)
	// Top-decile users should carry more configs than bottom-decile ones.
	n := len(pop.Users)
	var top, bottom float64
	for i := 0; i < n/10; i++ {
		top += float64(len(pop.Users[i].Configs))
		bottom += float64(len(pop.Users[n-1-i].Configs))
	}
	if !(top > bottom) {
		t.Errorf("top-decile configs %v <= bottom-decile %v", top, bottom)
	}
}

func TestExploreScalesWithActivity(t *testing.T) {
	pop := emmyPop(t, 22)
	first := pop.Users[0].Explore
	last := pop.Users[len(pop.Users)-1].Explore
	if !(first > last) {
		t.Errorf("heavy user explore %v <= casual %v", first, last)
	}
	if last <= 0 {
		t.Errorf("casual explore = %v, want positive", last)
	}
}

func TestDistinctRepertoireCells(t *testing.T) {
	pop := emmyPop(t, 23)
	for _, u := range pop.Users {
		cells := map[[2]int64]int{}
		for _, c := range u.Configs {
			cells[[2]int64{int64(c.Nodes), int64(c.ReqWall)}]++
		}
		dup := 0
		for _, n := range cells {
			if n > 1 {
				dup += n - 1
			}
		}
		// The anti-collision retry is best-effort (20 attempts): allow the
		// occasional duplicate but not systematic collisions.
		if dup > len(u.Configs)/2 {
			t.Errorf("%s has %d duplicate cells of %d configs", u.ID, dup, len(u.Configs))
		}
	}
}
