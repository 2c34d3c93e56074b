package core

import (
	"sync"

	"hpcpower/internal/apps"
	"hpcpower/internal/trace"
)

// Report bundles every single-system analysis of the paper.
type Report struct {
	System       string
	Jobs         int
	SystemLevel  SystemAnalysis     // Figs. 1-2
	Distribution PowerDistribution  // Fig. 3
	AppPower     []AppPower         // Fig. 4 (per system)
	Correlations CorrelationTable   // Table 2
	Splits       LengthSizeSplits   // Fig. 5
	Temporal     TemporalAnalysis   // Figs. 6-7
	Spatial      SpatialAnalysis    // Figs. 8-10
	Users        UserConcentration  // Fig. 11
	Variability  UserVariability    // Fig. 12
	Clusters     ClusterVariability // Fig. 13
}

// AnalyzeAll runs the full single-system battery. AnalyzeSystem runs
// first, since it validates the dataset; the other nine only read it and
// run at once, each into its own field. A refused dataset returns the
// error of the first failing step in the battery's order.
func AnalyzeAll(ds *trace.Dataset) (*Report, error) {
	r := &Report{System: ds.Meta.System, Jobs: len(ds.Jobs)}
	var err error
	if r.SystemLevel, err = AnalyzeSystem(ds); err != nil {
		return nil, err
	}
	steps := [...]func() error{
		func() (err error) { r.Distribution, err = AnalyzePowerDistribution(ds); return },
		func() error { r.AppPower = AnalyzeAppPower(ds, apps.KeyApps); return nil },
		func() (err error) { r.Correlations, err = AnalyzeCorrelations(ds); return },
		func() (err error) { r.Splits, err = AnalyzeLengthSizeSplits(ds); return },
		func() (err error) { r.Temporal, err = AnalyzeTemporal(ds); return },
		func() (err error) { r.Spatial, err = AnalyzeSpatial(ds); return },
		func() (err error) { r.Users, err = AnalyzeUserConcentration(ds); return },
		func() (err error) { r.Variability, err = AnalyzeUserVariability(ds); return },
		func() (err error) { r.Clusters, err = AnalyzeClusterVariability(ds); return },
	}
	var errs [len(steps)]error
	var wg sync.WaitGroup
	for i, step := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = step()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Comparison contrasts the two systems of the study (the cross-system
// findings of Fig. 4 and the summary bullets).
type Comparison struct {
	A, B *Report
	// Flips lists application pairs whose power ranking differs between
	// the systems.
	Flips [][2]string
	// PerAppDeltaPct maps each common application to the relative power
	// drop (positive: B draws less than A), in percent.
	PerAppDeltaPct map[string]float64
}

// Compare contrasts two reports (conventionally Emmy, Meggie).
func Compare(a, b *Report) *Comparison {
	c := &Comparison{A: a, B: b, PerAppDeltaPct: map[string]float64{}}
	c.Flips = RankingFlips(a.AppPower, b.AppPower)
	bw := map[string]float64{}
	for _, ap := range b.AppPower {
		bw[ap.App] = ap.MeanPowerW
	}
	for _, ap := range a.AppPower {
		if w, ok := bw[ap.App]; ok && ap.MeanPowerW > 0 {
			c.PerAppDeltaPct[ap.App] = 100 * (1 - w/ap.MeanPowerW)
		}
	}
	return c
}
