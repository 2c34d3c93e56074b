// Command powreport regenerates the full paper evaluation in one run:
// it synthesizes both systems, executes every table and figure analysis,
// the prediction study, and the §6 policy what-ifs, and prints a complete
// textual report. This is the command behind EXPERIMENTS.md.
//
// Usage:
//
//	powreport                    # 10% scale, seed 42
//	powreport -scale 1 -seed 42  # the full five-month study
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hpcpower"
	"hpcpower/internal/core"
	"hpcpower/internal/policy"
	"hpcpower/internal/report"
)

func main() {
	var (
		scale  = flag.Float64("scale", 0.1, "fraction of the 5-month study window in (0, 1]")
		seed   = flag.Uint64("seed", 42, "generator seed")
		mdPath = flag.String("md", "", "also write a Markdown reproduction record to this file")
	)
	flag.Parse()

	fmt.Printf("hpcpower paper report — scale %.2f, seed %d\n\n", *scale, *seed)
	if err := hpcpower.WriteSpecs(os.Stdout, []hpcpower.SystemSpec{hpcpower.Emmy(), hpcpower.Meggie()}); err != nil {
		fatal(err)
	}
	fmt.Println()

	var reports []*hpcpower.Report
	predSummaries := map[string][]core.PredSummary{}
	predictions := map[string][]hpcpower.EvalResult{}
	for _, build := range []func(float64, uint64) (*hpcpower.Dataset, error){
		hpcpower.GenerateEmmy, hpcpower.GenerateMeggie,
	} {
		start := time.Now()
		ds, err := build(*scale, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("generated %s: %d jobs in %.1fs\n\n", ds.Meta.System, len(ds.Jobs), time.Since(start).Seconds())

		r, err := hpcpower.Analyze(ds)
		if err != nil {
			fatal(err)
		}
		reports = append(reports, r)
		if err := hpcpower.WriteReport(os.Stdout, r); err != nil {
			fatal(err)
		}

		start = time.Now()
		results, err := hpcpower.EvaluatePredictors(ds, *seed)
		if err != nil {
			fatal(err)
		}
		evalTime := time.Since(start)
		if err := hpcpower.WritePrediction(os.Stdout, ds.Meta.System, results); err != nil {
			fatal(err)
		}
		fmt.Printf("evaluated %s: %d validation predictions per model in %.2fs\n\n", ds.Meta.System, results[0].N, evalTime.Seconds())
		predictions[ds.Meta.System] = results
		for _, r := range results {
			predSummaries[ds.Meta.System] = append(predSummaries[ds.Meta.System],
				core.PredSummary{Model: r.Model, FracBelow10: r.FracBelow10})
		}

		sweep, err := policy.CapSweep(ds, 0.5, 1.0, 11)
		if err != nil {
			fatal(err)
		}
		over, err := policy.EvaluateOverprovision(ds, 0.95)
		if err != nil {
			fatal(err)
		}
		jc, err := policy.EvaluateJobCaps(ds, 15, nil)
		if err != nil {
			fatal(err)
		}
		if err := report.RenderPolicy(os.Stdout, ds.Meta.System, sweep, over, jc); err != nil {
			fatal(err)
		}

		// Beyond-the-paper extensions: robustness, pricing, provisioning
		// strategies, and feature ablations.
		mc, err := hpcpower.AnalyzeMonthlyConsistency(ds)
		if err != nil {
			fatal(err)
		}
		pr, err := hpcpower.AnalyzePricing(ds)
		if err != nil {
			fatal(err)
		}
		pc, err := hpcpower.CompareProvisioning(ds, 0.15, 10)
		if err != nil {
			fatal(err)
		}
		ab, err := hpcpower.EvaluateAblation(ds, *seed)
		if err != nil {
			fatal(err)
		}
		if err := hpcpower.WriteExtensions(os.Stdout, mc, pr, pc, ab); err != nil {
			fatal(err)
		}
	}

	if err := hpcpower.WriteComparison(os.Stdout, hpcpower.Compare(reports[0], reports[1])); err != nil {
		fatal(err)
	}

	claims := core.CheckClaims(reports[0], reports[1], predSummaries)
	if err := report.RenderClaims(os.Stdout, claims); err != nil {
		fatal(err)
	}

	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			fatal(err)
		}
		in := report.MarkdownInput{
			Scale: *scale, Seed: *seed, Reports: reports,
			Predictions: predictions, Claims: claims,
		}
		if err := report.WriteMarkdown(f, in); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("markdown record written to %s\n", *mdPath)
	}

	if !core.ClaimsHold(claims) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "powreport: %v\n", err)
	os.Exit(1)
}
