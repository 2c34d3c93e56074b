package apps

import (
	"math"
	"testing"

	"hpcpower/internal/cluster"
)

func TestCatalogValid(t *testing.T) {
	for _, p := range Catalog() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		// Every app must be defined on both architectures of the study.
		for _, arch := range []cluster.Arch{cluster.IvyBridge, cluster.Broadwell} {
			if _, ok := p.PowerFrac[arch]; !ok {
				t.Errorf("%s missing power fraction for %s", p.Name, arch)
			}
		}
	}
}

func TestKeyAppsPresent(t *testing.T) {
	for _, name := range KeyApps {
		if _, err := ByName(name); err != nil {
			t.Errorf("key app %s missing: %v", name, err)
		}
	}
	if len(KeyApps) != 5 {
		t.Errorf("Fig. 4 compares 5 key apps, have %d", len(KeyApps))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("HPL"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestClassShareSumsToOne(t *testing.T) {
	shares := ClassShare()
	var total float64
	for _, s := range shares {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("class shares sum to %v", total)
	}
	// §2.1 mix: 30% MD, 30% chemistry, 25% CFD, 15% other.
	want := map[Class]float64{
		MolecularDynamics: 0.30, Chemistry: 0.30, CFD: 0.25, Other: 0.15,
	}
	for c, w := range want {
		if math.Abs(shares[c]-w) > 1e-9 {
			t.Errorf("%s share = %v, want %v", c, shares[c], w)
		}
	}
}

func TestPowerRankingFlips(t *testing.T) {
	// The paper's headline Fig. 4 observation: MD-0 out-draws FASTEST on
	// Emmy but the ranking flips on Meggie.
	md0, _ := ByName("MD-0")
	fast, _ := ByName("FASTEST")
	if !(md0.PowerFrac[cluster.IvyBridge] > fast.PowerFrac[cluster.IvyBridge]) {
		t.Error("on Emmy, MD-0 should out-draw FASTEST")
	}
	if !(md0.PowerFrac[cluster.Broadwell] < fast.PowerFrac[cluster.Broadwell]) {
		t.Error("on Meggie, FASTEST should out-draw MD-0")
	}
}

// nodeWatts is an application's mean per-node power on a system, as the
// generator derives it: the architecture's TDP fraction times the node TDP.
func nodeWatts(p Profile, spec cluster.Spec) float64 {
	return p.PowerFrac[spec.Arch] * float64(spec.NodeTDP)
}

func TestAllAppsDrawLessOnMeggie(t *testing.T) {
	// Fig. 4: every key application consumes more absolute per-node power
	// on Emmy than on Meggie (22 nm vs 14 nm process, Broadwell power
	// optimizations).
	emmy, meggie := cluster.Emmy(), cluster.Meggie()
	for _, p := range Catalog() {
		if e, m := nodeWatts(p, emmy), nodeWatts(p, meggie); !(e > m) {
			t.Errorf("%s: Emmy %v W <= Meggie %v W", p.Name, e, m)
		}
	}
}

func TestCrossSystemDeltaBounded(t *testing.T) {
	// Same app differs by up to ~25-30% across systems, not wildly more.
	emmy, meggie := cluster.Emmy(), cluster.Meggie()
	for _, name := range KeyApps {
		p, _ := ByName(name)
		drop := 1 - nodeWatts(p, meggie)/nodeWatts(p, emmy)
		if drop < 0.05 || drop > 0.40 {
			t.Errorf("%s cross-system drop = %.0f%%, want 5-40%%", name, 100*drop)
		}
	}
}

func TestCatalogIsACopy(t *testing.T) {
	c := Catalog()
	orig := c[0].Name
	c[0].Name = "MUTATED"
	if Catalog()[0].Name != orig {
		t.Error("Catalog exposes internal state")
	}
}

func TestValidateRejects(t *testing.T) {
	good, _ := ByName("WRF")
	cases := []struct {
		name string
		mut  func(*Profile)
	}{
		{"empty name", func(p *Profile) { p.Name = "" }},
		{"no fracs", func(p *Profile) { p.PowerFrac = nil }},
		{"frac > 1", func(p *Profile) { p.PowerFrac = map[cluster.Arch]float64{cluster.IvyBridge: 1.5} }},
		{"neg share", func(p *Profile) { p.ShareNodeHours = -0.1 }},
		{"zero nodes", func(p *Profile) { p.TypicalNodes = 0 }},
		{"zero wall", func(p *Profile) { p.TypicalWallHours = 0 }},
		{"flat prob", func(p *Profile) { p.FlatProb = 1.5 }},
		{"imbalance", func(p *Profile) { p.ImbalanceFrac = 0.9 }},
	}
	for _, c := range cases {
		p := good
		c.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
