package cluster

import (
	"math"
	"testing"

	"hpcpower/internal/rng"
)

func TestTable1Specs(t *testing.T) {
	e := Emmy()
	if e.Nodes != 560 || e.NodeTDP != 210 || e.Arch != IvyBridge || e.ProcessNm != 22 {
		t.Errorf("Emmy spec wrong: %+v", e)
	}
	if e.BatchSystem != "Torque-4.2.10 with maui-3.3.2" || !e.SMT {
		t.Errorf("Emmy details wrong: %+v", e)
	}
	m := Meggie()
	if m.Nodes != 728 || m.NodeTDP != 195 || m.Arch != Broadwell || m.ProcessNm != 14 {
		t.Errorf("Meggie spec wrong: %+v", m)
	}
	if m.BatchSystem != "Slurm 17.11" || m.SMT {
		t.Errorf("Meggie details wrong: %+v", m)
	}
	for _, s := range Systems() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("Meggie")
	if err != nil || s.Nodes != 728 {
		t.Errorf("ByName(Meggie) = %+v, %v", s, err)
	}
	if _, err := ByName("Fritz"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestSpecValidateRejects(t *testing.T) {
	bad := Emmy()
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero nodes accepted")
	}
	bad = Emmy()
	bad.NodeTDP = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero TDP accepted")
	}
	bad = Emmy()
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
}

func TestFleetVariability(t *testing.T) {
	f := NewFleet(Emmy(), rng.New(42))
	if len(f.Efficiency) != 560 {
		t.Fatalf("fleet size = %d", len(f.Efficiency))
	}
	var sum, sumsq float64
	for _, e := range f.Efficiency {
		if e < 0.88 || e > 1.12 {
			t.Fatalf("efficiency out of bounds: %v", e)
		}
		sum += e
		sumsq += e * e
	}
	n := float64(len(f.Efficiency))
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("fleet mean efficiency = %v, want ~1", mean)
	}
	if math.Abs(std-EfficiencyStd) > 0.015 {
		t.Errorf("fleet efficiency std = %v, want ~%v", std, EfficiencyStd)
	}
}

func TestFleetDeterministic(t *testing.T) {
	a := NewFleet(Meggie(), rng.New(7))
	b := NewFleet(Meggie(), rng.New(7))
	for i := range a.Efficiency {
		if a.Efficiency[i] != b.Efficiency[i] {
			t.Fatalf("fleet not deterministic at node %d", i)
		}
	}
	c := NewFleet(Meggie(), rng.New(8))
	same := 0
	for i := range a.Efficiency {
		if a.Efficiency[i] == c.Efficiency[i] {
			same++
		}
	}
	if same > len(a.Efficiency)/10 {
		t.Errorf("different seeds produce %d identical nodes", same)
	}
}

func TestNodeEfficiency(t *testing.T) {
	f := NewFleet(Emmy(), rng.New(1))
	if f.NodeEfficiency(5) != f.Efficiency[5] {
		t.Error("NodeEfficiency(5) mismatch")
	}
	// Out-of-range ids wrap rather than panic.
	if got := f.NodeEfficiency(560 + 3); got != f.Efficiency[3] {
		t.Errorf("wraparound = %v", got)
	}
	if got := f.NodeEfficiency(-2); got != f.Efficiency[2] {
		t.Errorf("negative id = %v", got)
	}
	empty := &Fleet{}
	if empty.NodeEfficiency(0) != 1 {
		t.Error("empty fleet should report nominal efficiency")
	}
}
