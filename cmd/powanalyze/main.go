// Command powanalyze runs the paper's full characterization battery on a
// released dataset directory and prints every table and figure as text.
//
// Usage:
//
//	powanalyze traces/emmy
//	powanalyze -csv figures/ traces/emmy traces/meggie
//	powanalyze -source http://127.0.0.1:8080            # live store over HTTP
//	powanalyze -live-control traces/emmy                 # same analytics, in-process replay
//
// With two dataset arguments it additionally prints the cross-system
// comparison (Fig. 4 ranking flips). -csv exports each figure's series.
//
// -source drives the paper's distribution/overshoot analytics from a
// running powserved's query API (blocks + head); -live-control replays
// a dataset through the identical in-process machinery. Fed the same
// samples (single-worker server, single-pusher loader, equal ring
// size), the two reports are byte-identical — the live store reproduces
// the CSV-path numbers exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hpcpower"
	"hpcpower/internal/core"
	"hpcpower/internal/live"
	"hpcpower/internal/report"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

func main() {
	var (
		csvDir      = flag.String("csv", "", "directory to export figure series as CSV (optional)")
		source      = flag.String("source", "", "powserved base URL: run the live distribution/overshoot analytics from the query API")
		liveControl = flag.String("live-control", "", "dataset directory: run the live analytics via in-process replay (parity control for -source)")
		system      = flag.String("system", "live", "system label for the live report")
		nodeTDP     = flag.Float64("tdp", 0, "node TDP in watts for the live report's TDP fractions (0 = omit)")
		liveRing    = flag.Int("live-ring", 16384, "retained samples per node in -live-control replay (must match the server's -ring)")
	)
	flag.Parse()
	if *source != "" || *liveControl != "" {
		if err := runLive(*source, *liveControl, *system, *nodeTDP, *liveRing); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: powanalyze [-csv dir] <dataset-dir> [<dataset-dir>] | -source <url> | -live-control <dataset-dir>")
		os.Exit(2)
	}

	var reports []*hpcpower.Report
	for _, dir := range flag.Args() {
		ds, err := hpcpower.Load(dir)
		if err != nil {
			fatal(err)
		}
		r, err := hpcpower.Analyze(ds)
		if err != nil {
			fatal(err)
		}
		reports = append(reports, r)
		if err := hpcpower.WriteReport(os.Stdout, r); err != nil {
			fatal(err)
		}
		if *csvDir != "" {
			if err := exportCSV(*csvDir, r); err != nil {
				fatal(err)
			}
		}
	}
	if len(reports) == 2 {
		if err := hpcpower.WriteComparison(os.Stdout, hpcpower.Compare(reports[0], reports[1])); err != nil {
			fatal(err)
		}
	}
}

// exportCSV writes every figure series of the report into dir.
func exportCSV(dir string, r *core.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	series := map[string][]stats.Point{
		"fig01_utilization":     r.SystemLevel.UtilSeries,
		"fig02_power_util":      r.SystemLevel.PowerSeries,
		"fig03_power_pdf":       r.Distribution.PDF,
		"fig07a_overshoot_cdf":  r.Temporal.OvershootCDF,
		"fig07b_time_above_cdf": r.Temporal.PctTimeAboveCDF,
		"fig09a_spread_w_cdf":   r.Spatial.SpreadWCDF,
		"fig09b_spread_pct_cdf": r.Spatial.SpreadPctCDF,
		"fig09c_time_above_cdf": r.Spatial.PctTimeAboveCDF,
		"fig10_energy_pdf":      r.Spatial.EnergySpreadPDF,
		"fig11_nodehours_curve": r.Users.NodeHoursCurve,
		"fig11_energy_curve":    r.Users.EnergyCurve,
		"fig12_user_std_cdf":    r.Variability.PowerStdCDF,
	}
	for name, pts := range series {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", name, r.System))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := report.WriteSeriesCSV(f, "x", "y", pts); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runLive executes the live-store analytics: pull from a running
// powserved (-source) or replay a dataset in process (-live-control).
func runLive(source, controlDir, system string, nodeTDP float64, ring int) error {
	var (
		in  core.LiveInput
		err error
	)
	switch {
	case source != "" && controlDir != "":
		return fmt.Errorf("use -source or -live-control, not both")
	case source != "":
		in, err = live.Pull(source, system, nodeTDP)
	default:
		var ds *trace.Dataset
		ds, err = hpcpower.Load(controlDir)
		if err != nil {
			return err
		}
		in, err = live.Replay(ds, system, nodeTDP, ring)
	}
	if err != nil {
		return err
	}
	r, err := core.AnalyzeLive(in)
	if err != nil {
		return err
	}
	return report.WriteLive(os.Stdout, r)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "powanalyze: %v\n", err)
	os.Exit(1)
}
