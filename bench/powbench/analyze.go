package main

import (
	"bytes"
	"fmt"

	"hpcpower"
)

// studySeed generates the datasets analyze-offline analyses, whatever
// the run's seed. How many jobs and how concentrated a user population a
// seed yields at this scale varies by a factor of two, and the KNN
// evaluation is quadratic in both: runs with different seeds would not
// be doing the same work (op_p50_ms 415–1,609 ms over ten seeds). A
// researcher analyses one released dataset; the run's seed draws the
// ten 80/20 evaluation splits, which is where the analysis is random.
const studySeed = 42

// analyzeInst is the paper's offline analysis. Set-up generates the two
// systems' datasets (what a researcher loads); one operation is what
// cmd/powreport computes from them.
type analyzeInst struct {
	seed         uint64
	scale        float64
	emmy, meggie *hpcpower.Dataset
	report       []byte // the first repetition's rendered report
}

func setupAnalyze(e *env) (instance, error) {
	a := &analyzeInst{seed: e.seed, scale: analyzeScale / float64(e.div)}
	scale := a.scale
	var err error
	if a.emmy, err = hpcpower.GenerateEmmy(scale, studySeed); err != nil {
		return nil, err
	}
	if a.meggie, err = hpcpower.GenerateMeggie(scale, studySeed); err != nil {
		return nil, err
	}
	return a, nil
}

// analyze runs every analysis of the paper and renders the report text.
func (a *analyzeInst) analyze() ([]byte, error) {
	re, err := hpcpower.Analyze(a.emmy)
	if err != nil {
		return nil, err
	}
	rm, err := hpcpower.Analyze(a.meggie)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := hpcpower.WriteReport(&b, re); err != nil {
		return nil, err
	}
	if err := hpcpower.WriteReport(&b, rm); err != nil {
		return nil, err
	}
	if err := hpcpower.WriteComparison(&b, hpcpower.Compare(re, rm)); err != nil {
		return nil, err
	}
	for _, ds := range []*hpcpower.Dataset{a.emmy, a.meggie} {
		res, err := hpcpower.EvaluatePredictors(ds, a.seed)
		if err != nil {
			return nil, err
		}
		if err := hpcpower.WritePrediction(&b, ds.Meta.System, res); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

func (a *analyzeInst) Round() (roundStats, error) {
	var text []byte
	r := roundStats{ops: 1, work: float64(len(a.emmy.Jobs) + len(a.meggie.Jobs))}
	var err error
	r.busy, r.cpu, r.alloc, err = measure(func() error {
		var err error
		text, err = a.analyze()
		return err
	})
	if err != nil {
		return r, err
	}
	r.lat = []float64{ms(r.busy)}
	// The oracle: every repetition renders the same report, byte for byte.
	if a.report == nil {
		a.report = text
	} else if !bytes.Equal(text, a.report) {
		return r, fmt.Errorf("report text differs between repetitions")
	}
	return r, nil
}

func (a *analyzeInst) Verify() error {
	if len(a.report) == 0 {
		return fmt.Errorf("no report was rendered")
	}
	return nil
}

func (a *analyzeInst) Close() error { return nil }
