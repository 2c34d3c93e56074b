// Package apps models the application mix of the two systems and the
// power-consumption profile of each application.
//
// Section 2.1 of the paper reports the workload composition by compute
// cycles: ~30% molecular-dynamics codes (Gromacs, the in-house MD-0), ~30%
// chemistry and materials-science codes, ~25% memory-bandwidth-intensive
// CFD codes (FASTEST, STAR-CCM+), and ~15% others (e.g. WRF). Section 4
// (Fig. 4) shows that per-node power is application- and architecture-
// dependent, and that the power ranking of applications is NOT portable
// across systems (MD-0 vs FASTEST flip between Emmy and Meggie).
//
// Each profile therefore carries a per-architecture mean power fraction —
// the substitution for the real codes we cannot run — plus the temporal
// and spatial shape parameters the telemetry synthesizer consumes.
package apps

import (
	"fmt"

	"hpcpower/internal/cluster"
)

// Class is a coarse application domain.
type Class string

// Application domains of the workload mix in §2.1.
const (
	MolecularDynamics Class = "MD"
	Chemistry         Class = "Chemistry"
	CFD               Class = "CFD"
	Other             Class = "Other"
)

// Profile describes the power behaviour of one application.
type Profile struct {
	Name  string
	Class Class

	// PowerFrac is the mean per-node power of this application on each
	// architecture, as a fraction of node TDP. These constants encode the
	// paper's observation that power characteristics do not port across
	// systems: the values are deliberately NOT order-preserving between
	// architectures (MD-0 and FASTEST flip).
	PowerFrac map[cluster.Arch]float64

	// PowerSpread is the relative standard deviation of job mean power
	// around the application mean, driven by input decks and solver
	// settings differing between runs.
	PowerSpread float64

	// FlatProb is the probability that a run exhibits an essentially flat
	// power profile. The paper finds temporal variance is low: ~70% of
	// jobs spend ≈0% of their runtime more than 10% above their mean.
	FlatProb float64

	// PhaseAmpFrac is the relative amplitude of the phase modulation for
	// non-flat runs (compute/communication/IO phase alternation).
	PhaseAmpFrac float64

	// ImbalanceFrac is the relative standard deviation of the per-node
	// static workload imbalance within one job. Together with the fleet's
	// manufacturing variability it produces the paper's spatial spread.
	ImbalanceFrac float64

	// DRAMFrac is the share of node power drawn by the DRAM RAPL domain:
	// higher for memory-bandwidth-bound codes (§2.1 calls the CFD codes
	// memory-bandwidth-intensive), lower for compute-bound MD.
	DRAMFrac float64

	// ShareNodeHours is the application's share of delivered node-hours.
	ShareNodeHours float64

	// TypicalNodes and TypicalWallHours parameterize the job-size and
	// requested-walltime distributions of the application (log-normal
	// around these medians).
	TypicalNodes     int
	TypicalWallHours float64
}

// KeyApps are the five applications common to both systems that Fig. 4
// compares.
var KeyApps = []string{"GROMACS", "MD-0", "FASTEST", "STARCCM", "WRF"}

// catalog is the application population. Power fractions are calibrated so
// the job-level per-node power distribution matches Fig. 3 (Emmy: mean
// ≈71% of TDP, CV ≈26%; Meggie: mean ≈59% of TDP, CV ≈18%).
var catalog = []Profile{
	{
		Name: "GROMACS", Class: MolecularDynamics,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.79, cluster.Broadwell: 0.64},
		PowerSpread: 0.10, FlatProb: 0.85, PhaseAmpFrac: 0.20, ImbalanceFrac: 0.025,
		DRAMFrac:       0.10,
		ShareNodeHours: 0.15, TypicalNodes: 8, TypicalWallHours: 16,
	},
	{
		Name: "MD-0", Class: MolecularDynamics,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.77, cluster.Broadwell: 0.57},
		PowerSpread: 0.08, FlatProb: 0.88, PhaseAmpFrac: 0.16, ImbalanceFrac: 0.021,
		DRAMFrac:       0.11,
		ShareNodeHours: 0.10, TypicalNodes: 6, TypicalWallHours: 12,
	},
	{
		Name: "LAMMPS", Class: MolecularDynamics,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.73, cluster.Broadwell: 0.60},
		PowerSpread: 0.10, FlatProb: 0.82, PhaseAmpFrac: 0.20, ImbalanceFrac: 0.028,
		DRAMFrac:       0.12,
		ShareNodeHours: 0.05, TypicalNodes: 4, TypicalWallHours: 10,
	},
	{
		Name: "CP2K", Class: Chemistry,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.66, cluster.Broadwell: 0.61},
		PowerSpread: 0.12, FlatProb: 0.60, PhaseAmpFrac: 0.28, ImbalanceFrac: 0.035,
		DRAMFrac:       0.17,
		ShareNodeHours: 0.12, TypicalNodes: 6, TypicalWallHours: 8,
	},
	{
		Name: "VASP", Class: Chemistry,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.71, cluster.Broadwell: 0.65},
		PowerSpread: 0.11, FlatProb: 0.65, PhaseAmpFrac: 0.24, ImbalanceFrac: 0.032,
		DRAMFrac:       0.16,
		ShareNodeHours: 0.12, TypicalNodes: 8, TypicalWallHours: 10,
	},
	{
		Name: "QESPRESSO", Class: Chemistry,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.56, cluster.Broadwell: 0.56},
		PowerSpread: 0.12, FlatProb: 0.62, PhaseAmpFrac: 0.26, ImbalanceFrac: 0.035,
		DRAMFrac:       0.18,
		ShareNodeHours: 0.06, TypicalNodes: 3, TypicalWallHours: 6,
	},
	{
		Name: "FASTEST", Class: CFD,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.68, cluster.Broadwell: 0.61},
		PowerSpread: 0.09, FlatProb: 0.70, PhaseAmpFrac: 0.24, ImbalanceFrac: 0.042,
		DRAMFrac:       0.26,
		ShareNodeHours: 0.12, TypicalNodes: 8, TypicalWallHours: 8,
	},
	{
		Name: "STARCCM", Class: CFD,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.70, cluster.Broadwell: 0.58},
		PowerSpread: 0.10, FlatProb: 0.68, PhaseAmpFrac: 0.24, ImbalanceFrac: 0.045,
		DRAMFrac:       0.24,
		ShareNodeHours: 0.09, TypicalNodes: 6, TypicalWallHours: 6,
	},
	{
		Name: "OPENFOAM", Class: CFD,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.64, cluster.Broadwell: 0.54},
		PowerSpread: 0.11, FlatProb: 0.65, PhaseAmpFrac: 0.28, ImbalanceFrac: 0.042,
		DRAMFrac:       0.25,
		ShareNodeHours: 0.04, TypicalNodes: 3, TypicalWallHours: 4,
	},
	{
		Name: "WRF", Class: Other,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.60, cluster.Broadwell: 0.50},
		PowerSpread: 0.12, FlatProb: 0.50, PhaseAmpFrac: 0.32, ImbalanceFrac: 0.038,
		DRAMFrac:       0.20,
		ShareNodeHours: 0.07, TypicalNodes: 2, TypicalWallHours: 2,
	},
	{
		Name: "MISC", Class: Other,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.49, cluster.Broadwell: 0.44},
		PowerSpread: 0.18, FlatProb: 0.55, PhaseAmpFrac: 0.30, ImbalanceFrac: 0.035,
		DRAMFrac:       0.15,
		ShareNodeHours: 0.05, TypicalNodes: 2, TypicalWallHours: 1,
	},
	{
		// Serial users are asked to bundle several single-core runs into one
		// node-exclusive job (§2.1); such bundles under-utilize the socket.
		Name: "SERIAL-MIX", Class: Other,
		PowerFrac:   map[cluster.Arch]float64{cluster.IvyBridge: 0.42, cluster.Broadwell: 0.38},
		PowerSpread: 0.20, FlatProb: 0.60, PhaseAmpFrac: 0.24, ImbalanceFrac: 0.032,
		DRAMFrac:       0.12,
		ShareNodeHours: 0.03, TypicalNodes: 1, TypicalWallHours: 4,
	},
}

// Catalog returns the full application catalog (a copy; callers may not
// mutate the shared profiles).
func Catalog() []Profile {
	out := make([]Profile, len(catalog))
	copy(out, catalog)
	return out
}

// ByName returns the profile of the named application.
func ByName(name string) (Profile, error) {
	for _, p := range catalog {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("apps: unknown application %q", name)
}

// ClassShare sums ShareNodeHours per class.
func ClassShare() map[Class]float64 {
	m := map[Class]float64{}
	for _, p := range catalog {
		m[p.Class] += p.ShareNodeHours
	}
	return m
}

// Validate reports the first problem with the profile, if any.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("apps: profile with empty name")
	case len(p.PowerFrac) == 0:
		return fmt.Errorf("apps: %s has no power fractions", p.Name)
	case p.ShareNodeHours < 0 || p.ShareNodeHours > 1:
		return fmt.Errorf("apps: %s share %v out of range", p.Name, p.ShareNodeHours)
	case p.TypicalNodes <= 0:
		return fmt.Errorf("apps: %s typical nodes %d", p.Name, p.TypicalNodes)
	case p.TypicalWallHours <= 0:
		return fmt.Errorf("apps: %s typical walltime %v", p.Name, p.TypicalWallHours)
	}
	for arch, f := range p.PowerFrac {
		if f <= 0 || f > 1 {
			return fmt.Errorf("apps: %s power fraction %v on %s out of (0,1]", p.Name, f, arch)
		}
	}
	switch {
	case p.PowerSpread < 0 || p.PowerSpread > 0.5:
		return fmt.Errorf("apps: %s power spread %v out of range", p.Name, p.PowerSpread)
	case p.FlatProb < 0 || p.FlatProb > 1:
		return fmt.Errorf("apps: %s flat probability %v out of range", p.Name, p.FlatProb)
	case p.PhaseAmpFrac < 0 || p.PhaseAmpFrac > 1:
		return fmt.Errorf("apps: %s phase amplitude %v out of range", p.Name, p.PhaseAmpFrac)
	case p.ImbalanceFrac < 0 || p.ImbalanceFrac > 0.5:
		return fmt.Errorf("apps: %s imbalance %v out of range", p.Name, p.ImbalanceFrac)
	case p.DRAMFrac <= 0 || p.DRAMFrac > 0.5:
		return fmt.Errorf("apps: %s DRAM fraction %v out of (0,0.5]", p.Name, p.DRAMFrac)
	}
	return nil
}
