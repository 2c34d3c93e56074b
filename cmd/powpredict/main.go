// Command powpredict reproduces the paper's pre-execution power
// prediction evaluation (Figs. 14-15) on a released dataset: BDT, KNN and
// FLDA under ten stratified 80/20 splits.
//
// Usage:
//
//	powpredict traces/emmy
//	powpredict -seed 7 -what-if "u001,8,12" traces/emmy
//	powpredict -save-model model.json traces/emmy
//
// -what-if trains a BDT on the full dataset and predicts the per-node
// power of a hypothetical job given as user,nodes,wall-hours.
// -save-model trains a BDT on the full dataset and exports it as JSON
// for powserved's POST /v1/predict endpoint.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hpcpower"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 7, "evaluation split seed")
		whatIf    = flag.String("what-if", "", "predict one job: user,nodes,wallHours")
		saveModel = flag.String("save-model", "", "train a BDT on the full dataset and write it to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: powpredict [-seed n] [-what-if u,n,h] <dataset-dir>")
		os.Exit(2)
	}
	ds, err := hpcpower.Load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	results, err := hpcpower.EvaluatePredictors(ds, *seed)
	if err != nil {
		fatal(err)
	}
	evalTime := time.Since(start)
	if err := hpcpower.WritePrediction(os.Stdout, ds.Meta.System, results); err != nil {
		fatal(err)
	}
	fmt.Printf("evaluated %s: %d validation predictions per model in %.2fs\n", ds.Meta.System, results[0].N, evalTime.Seconds())

	if *whatIf != "" {
		f, err := parseFeatures(*whatIf)
		if err != nil {
			fatal(err)
		}
		m := hpcpower.NewBDT()
		if err := m.Fit(hpcpower.TrainingSamples(ds)); err != nil {
			fatal(err)
		}
		p := m.Predict(f)
		fmt.Printf("what-if %s, %d nodes, %.1f h requested: predicted %.1f W per node (%.0f%% of TDP)\n",
			f.User, f.Nodes, f.WallHours, p, 100*p/ds.Meta.NodeTDPW)
	}

	if *saveModel != "" {
		m := hpcpower.NewBDT()
		if err := m.Fit(hpcpower.TrainingSamples(ds)); err != nil {
			fatal(err)
		}
		if err := hpcpower.SaveBDTFile(*saveModel, m); err != nil {
			fatal(err)
		}
		fmt.Printf("saved BDT trained on %d jobs to %s (serve it: powserved -model %s)\n",
			len(ds.Jobs), *saveModel, *saveModel)
	}
}

func parseFeatures(s string) (hpcpower.PredictFeatures, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return hpcpower.PredictFeatures{}, fmt.Errorf("powpredict: want user,nodes,wallHours, got %q", s)
	}
	nodes, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return hpcpower.PredictFeatures{}, fmt.Errorf("powpredict: bad node count: %v", err)
	}
	wall, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil {
		return hpcpower.PredictFeatures{}, fmt.Errorf("powpredict: bad wall hours: %v", err)
	}
	return hpcpower.PredictFeatures{
		User: strings.TrimSpace(parts[0]), Nodes: nodes, WallHours: wall,
	}, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "powpredict: %v\n", err)
	os.Exit(1)
}
