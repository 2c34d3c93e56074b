// Package cluster models the two production HPC systems of the study,
// Emmy and Meggie, as specified in Table 1 of the paper, together with a
// per-node manufacturing-variability model.
//
// Emmy is a 560-node general-purpose Intel IvyBridge system; Meggie is a
// 728-node Intel Broadwell system dedicated to resource-intensive projects.
// Node access on both systems is exclusive: a job allocates whole nodes.
package cluster

import (
	"fmt"

	"hpcpower/internal/rng"
	"hpcpower/internal/units"
)

// Arch identifies the processor micro-architecture of a system. The paper
// attributes cross-system power differences chiefly to the micro-
// architecture (22 nm IvyBridge vs 14 nm Broadwell).
type Arch string

// Architectures of the two systems under study.
const (
	IvyBridge Arch = "IvyBridge" // Emmy: Intel Xeon E5-2660 v2, 22 nm
	Broadwell Arch = "Broadwell" // Meggie: Intel Xeon E5-2630 v4, 14 nm
)

// Spec is the full system specification from Table 1 of the paper.
type Spec struct {
	Name         string
	Nodes        int
	Arch         Arch
	ProcessNm    int    // manufacturing process node in nanometres
	Enclosure    string // chassis model; four compute nodes share one chassis
	Mainboard    string
	Processors   string      // per-node CPU configuration
	NodeTDP      units.Watts // node-level TDP (CPU + DRAM)
	TurboMode    bool
	SMT          bool
	MemoryGB     int
	MemoryType   string
	Interconnect string
	Topology     string
	OS           string
	BatchSystem  string  // Torque or Slurm
	LinpackTF    float64 // LINPACK performance, TFlop/s
	LinpackKW    float64 // total LINPACK power, kW
	InflowTempC  [2]int  // inflow temperature range
	Cooling      string
}

// Emmy returns the specification of the Emmy system.
func Emmy() Spec {
	return Spec{
		Name:         "Emmy",
		Nodes:        560,
		Arch:         IvyBridge,
		ProcessNm:    22,
		Enclosure:    "Supermicro SuperServer 6027TR-HTQRF, 1x 1620 W PSU, 4x 8cm PWM fans per 4 nodes",
		Mainboard:    "Supermicro X9DRT-IBQF",
		Processors:   "2x Intel Xeon E5-2660 v2",
		NodeTDP:      210,
		TurboMode:    true,
		SMT:          true,
		MemoryGB:     64,
		MemoryType:   "8x 8 GB DDR3-1600",
		Interconnect: "on-board Mellanox QDR InfiniBand HCA",
		Topology:     "fat-tree",
		OS:           "CentOS 7.6",
		BatchSystem:  "Torque-4.2.10 with maui-3.3.2",
		LinpackTF:    191,
		LinpackKW:    170,
		InflowTempC:  [2]int{26, 28},
		Cooling:      "rear door coolers",
	}
}

// Meggie returns the specification of the Meggie system.
func Meggie() Spec {
	return Spec{
		Name:         "Meggie",
		Nodes:        728,
		Arch:         Broadwell,
		ProcessNm:    14,
		Enclosure:    "Intel H2312XXLR2, 2x 1600 W PSU, 12x 4cm RWM fans per 4 nodes",
		Mainboard:    "Intel S2600KPR",
		Processors:   "2x Intel Xeon E5-2630 v4",
		NodeTDP:      195,
		TurboMode:    true,
		SMT:          false,
		MemoryGB:     64,
		MemoryType:   "8x 8 GB DDR4-2133",
		Interconnect: "100 GBit Intel OmniPath as x16 PCIe card",
		Topology:     "1:2 blocking",
		OS:           "CentOS 7.6",
		BatchSystem:  "Slurm 17.11",
		LinpackTF:    472,
		LinpackKW:    210,
		InflowTempC:  [2]int{28, 30},
		Cooling:      "rear door coolers",
	}
}

// Systems returns the two systems of the study, Emmy first.
func Systems() []Spec { return []Spec{Emmy(), Meggie()} }

// ByName returns the spec with the given name (case-sensitive).
func ByName(name string) (Spec, error) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("cluster: unknown system %q", name)
}

// Validate reports structural problems in a spec.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("cluster: spec has empty name")
	case s.Nodes <= 0:
		return fmt.Errorf("cluster: %s has %d nodes", s.Name, s.Nodes)
	case s.NodeTDP <= 0:
		return fmt.Errorf("cluster: %s has TDP %v", s.Name, s.NodeTDP)
	}
	return nil
}

// Fleet carries the persistent per-node manufacturing variability of a
// system. Identical parts differ in power efficiency due to process
// variation; the paper names manufacturing variability as one of the two
// drivers of the high spatial variance it observes (§4, [1, 23, 26]).
type Fleet struct {
	Spec Spec
	// Efficiency[i] is a persistent multiplicative power factor for node i:
	// 1.0 is nominal, >1 draws more power for the same work.
	Efficiency []float64
}

// EfficiencyStd is the relative standard deviation of per-node power
// efficiency. Studies of production Intel fleets report 3-8% part-to-part
// power variation at fixed frequency; 3% reproduces the paper's spatial
// spread once workload imbalance is added on top.
const EfficiencyStd = 0.03

// NewFleet draws the per-node efficiency factors for spec from src.
func NewFleet(spec Spec, src *rng.Source) *Fleet {
	f := &Fleet{Spec: spec, Efficiency: make([]float64, spec.Nodes)}
	for i := range f.Efficiency {
		// Each node's factor comes from its own substream so that fleets
		// are stable under regeneration.
		ns := src.Split(0xf1ee7, uint64(i))
		f.Efficiency[i] = ns.TruncNormal(1, EfficiencyStd, 0.88, 1.12)
	}
	return f
}

// NodeEfficiency returns the efficiency factor of node id (clamped into
// range so callers may use job-local node numbering).
func (f *Fleet) NodeEfficiency(id int) float64 {
	if len(f.Efficiency) == 0 {
		return 1
	}
	if id < 0 {
		id = -id
	}
	return f.Efficiency[id%len(f.Efficiency)]
}
