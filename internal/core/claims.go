package core

import (
	"fmt"
	"sort"
)

// The claims checker turns the paper's findings into executable
// assertions: every bullet of the introduction/discussion becomes a
// Claim evaluated against the reproduced reports. cmd/powreport prints
// the outcome; CI uses it to catch calibration drift.

// Claim is one falsifiable statement from the paper.
type Claim struct {
	ID        string // e.g. "stranded-power"
	Section   string // where the paper makes it
	Statement string // the claim, paraphrased
	Holds     bool
	Measured  string // what this reproduction observed
}

// CheckClaims evaluates the paper's headline claims against the two
// system reports (conventionally Emmy, Meggie) and the prediction
// results keyed by system name.
func CheckClaims(emmy, meggie *Report, pred map[string][]PredSummary) []Claim {
	var out []Claim
	add := func(id, section, statement string, holds bool, measured string) {
		out = append(out, Claim{
			ID: id, Section: section, Statement: statement,
			Holds: holds, Measured: measured,
		})
	}

	// §3: high utilization, low power utilization, stranded power.
	add("high-utilization", "§3/Fig.1",
		"both systems are highly utilized (~80%+)",
		emmy.SystemLevel.MeanUtilizationPct > 75 && meggie.SystemLevel.MeanUtilizationPct > 70,
		fmt.Sprintf("Emmy %.1f%%, Meggie %.1f%%",
			emmy.SystemLevel.MeanUtilizationPct, meggie.SystemLevel.MeanUtilizationPct))
	add("stranded-power", "§3/Fig.2",
		"a significant fraction (~30%) of provisioned power is stranded",
		emmy.SystemLevel.StrandedPowerPct > 20 && meggie.SystemLevel.StrandedPowerPct > 30,
		fmt.Sprintf("Emmy %.1f%%, Meggie %.1f%%",
			emmy.SystemLevel.StrandedPowerPct, meggie.SystemLevel.StrandedPowerPct))

	// §4: jobs draw well below TDP; Emmy above Meggie.
	add("below-tdp", "§4/Fig.3",
		"per-node job power sits far below TDP (Emmy ~71%, Meggie ~59%)",
		emmy.Distribution.MeanTDPFracPct > 60 && emmy.Distribution.MeanTDPFracPct < 82 &&
			meggie.Distribution.MeanTDPFracPct > 50 && meggie.Distribution.MeanTDPFracPct < 70,
		fmt.Sprintf("Emmy %.1f%% of TDP, Meggie %.1f%% of TDP",
			emmy.Distribution.MeanTDPFracPct, meggie.Distribution.MeanTDPFracPct))

	// §4/Fig.4: ranking not portable across systems.
	flips := RankingFlips(emmy.AppPower, meggie.AppPower)
	add("ranking-flip", "§4/Fig.4",
		"application power ranking does not port across systems",
		len(flips) > 0, fmt.Sprintf("%d flipped pairs: %v", len(flips), flips))

	// Table 2: positive correlations with the right per-system ordering.
	add("length-size-correlation", "§4/Table 2",
		"length and size correlate positively with per-node power; length dominates on Emmy, size on Meggie",
		emmy.Correlations.Length.R > 0 && emmy.Correlations.Size.R > 0 &&
			meggie.Correlations.Length.R > 0 && meggie.Correlations.Size.R > 0 &&
			emmy.Correlations.Length.R > emmy.Correlations.Size.R &&
			meggie.Correlations.Size.R > meggie.Correlations.Length.R,
		fmt.Sprintf("Emmy ρ(len)=%.2f ρ(size)=%.2f; Meggie ρ(len)=%.2f ρ(size)=%.2f",
			emmy.Correlations.Length.R, emmy.Correlations.Size.R,
			meggie.Correlations.Length.R, meggie.Correlations.Size.R))

	// Fig. 5: longer/larger jobs draw more with less variability.
	add("fig5-splits", "§4/Fig.5",
		"longer (larger) jobs draw more per-node power with lower variability",
		emmy.Splits.Long.MeanPowerW > emmy.Splits.Short.MeanPowerW &&
			emmy.Splits.Large.MeanPowerW > emmy.Splits.Small.MeanPowerW &&
			emmy.Splits.Long.StdW < emmy.Splits.Short.StdW &&
			emmy.Splits.Large.StdW < emmy.Splits.Small.StdW,
		fmt.Sprintf("Emmy long %.0f W (σ %.0f) vs short %.0f W (σ %.0f)",
			emmy.Splits.Long.MeanPowerW, emmy.Splits.Long.StdW,
			emmy.Splits.Short.MeanPowerW, emmy.Splits.Short.StdW))

	// §4: temporal variance low.
	add("temporal-low", "§4/Fig.7",
		"temporal variance is low: most jobs never exceed 10% above their mean",
		emmy.Temporal.FracJobsNearZeroPct > 60 && emmy.Temporal.MeanOvershootPct < 20,
		fmt.Sprintf("Emmy: %.0f%% of jobs ≈0%% above; mean overshoot %.1f%%",
			emmy.Temporal.FracJobsNearZeroPct, emmy.Temporal.MeanOvershootPct))

	// §4: spatial variance high.
	add("spatial-high", "§4/Fig.9",
		"spatial variance is high: ~15-20 W max-min spread across a job's nodes",
		emmy.Spatial.MeanSpreadW > 10 && emmy.Spatial.MeanSpreadPct > 8,
		fmt.Sprintf("Emmy: %.1f W spread = %.1f%% of per-node power",
			emmy.Spatial.MeanSpreadW, emmy.Spatial.MeanSpreadPct))
	add("energy-spread", "§4/Fig.10",
		"a sizeable job fraction (~20%) shows >15% node-energy imbalance",
		emmy.Spatial.FracJobsEnergyAbove15 > 10,
		fmt.Sprintf("Emmy: %.1f%% of jobs above 15%%", emmy.Spatial.FracJobsEnergyAbove15))

	// §5: concentration and overlap.
	add("user-concentration", "§5/Fig.11",
		"top 20% of users hold ~85% of node-hours and energy, with ~90% overlap",
		emmy.Users.Top20NodeHoursPct > 75 && emmy.Users.Top20EnergyPct > 75 &&
			emmy.Users.OverlapPct > 80,
		fmt.Sprintf("Emmy: %.0f%% node-hours, %.0f%% energy, %.0f%% overlap",
			emmy.Users.Top20NodeHoursPct, emmy.Users.Top20EnergyPct, emmy.Users.OverlapPct))

	// §5: per-user variability collapses inside clusters.
	add("cluster-collapse", "§5/Figs.12-13",
		"per-user power variability collapses when clustered by (user,nodes) or (user,walltime)",
		emmy.Clusters.ByNodes.MeanStdPct < emmy.Variability.MeanPowerStdPct &&
			emmy.Clusters.ByNodes.FracBelow10Pct > 50,
		fmt.Sprintf("Emmy: per-user %.1f%% -> by-nodes clusters %.1f%% (%.0f%% below 10%%)",
			emmy.Variability.MeanPowerStdPct, emmy.Clusters.ByNodes.MeanStdPct,
			emmy.Clusters.ByNodes.FracBelow10Pct))

	// §5: prediction quality and model ordering, one claim per system in
	// name order.
	systems := make([]string, 0, len(pred))
	for system := range pred {
		systems = append(systems, system)
	}
	sort.Strings(systems)
	for _, system := range systems {
		byName := map[string]PredSummary{}
		for _, r := range pred[system] {
			byName[r.Model] = r
		}
		bdt, okB := byName["BDT"]
		flda, okF := byName["FLDA"]
		if !okB || !okF {
			continue
		}
		add("prediction-"+system, "§5/Fig.14",
			"BDT predicts power with <10% error for ~90% of jobs and beats FLDA",
			bdt.FracBelow10 > 80 && bdt.FracBelow10 > flda.FracBelow10,
			fmt.Sprintf("%s: BDT %.1f%% <10%% err vs FLDA %.1f%%",
				system, bdt.FracBelow10, flda.FracBelow10))
	}
	return out
}

// PredSummary is the slice of an mlearn.EvalResult the claims checker
// needs (kept local to avoid a core→mlearn dependency).
type PredSummary struct {
	Model       string
	FracBelow10 float64
}

// ClaimsHold reports whether every claim holds.
func ClaimsHold(claims []Claim) bool {
	for _, c := range claims {
		if !c.Holds {
			return false
		}
	}
	return true
}
