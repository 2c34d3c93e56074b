package report

import (
	"bytes"
	"strings"
	"testing"

	"hpcpower/internal/cluster"
	"hpcpower/internal/core"
	"hpcpower/internal/gen"
	"hpcpower/internal/mlearn"
	"hpcpower/internal/policy"
	"hpcpower/internal/stats"
)

func TestTable(t *testing.T) {
	var buf bytes.Buffer
	err := Table(&buf, []string{"a", "long-header"}, [][]string{
		{"1", "x"},
		{"22", "yy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a ") || !strings.Contains(lines[0], "long-header") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator = %q", lines[1])
	}
	// Columns aligned: "22" row starts at same column as "1" row.
	if lines[2][0] != '1' || lines[3][0] != '2' {
		t.Errorf("rows misaligned:\n%s", out)
	}
}

func TestPlot(t *testing.T) {
	var buf bytes.Buffer
	series := []stats.Point{{X: 0, Y: 0}, {X: 1, Y: 0.5}, {X: 2, Y: 1}}
	if err := Plot(&buf, "test plot", series, 8, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test plot") {
		t.Error("title missing")
	}
	if strings.Count(out, "*") < 3 {
		t.Errorf("marks missing:\n%s", out)
	}
	// Empty series does not crash.
	buf.Reset()
	if err := Plot(&buf, "empty", nil, 8, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no data)") {
		t.Error("empty-series note missing")
	}
	// Degenerate constant series does not divide by zero.
	buf.Reset()
	if err := Plot(&buf, "const", []stats.Point{{X: 1, Y: 1}, {X: 1, Y: 1}}, 8, 40); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, "x", "y", []stats.Point{{X: 1, Y: 2}, {X: 3.5, Y: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,2\n3.5,4\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.25) != "1.2" && F(1.25) != "1.3" {
		t.Errorf("F = %q", F(1.25))
	}
	if F2(0.423) != "0.42" {
		t.Errorf("F2 = %q", F2(0.423))
	}
	if P(0) != "0.00" {
		t.Errorf("P(0) = %q", P(0))
	}
	if !strings.Contains(P(1.31e-113), "e-113") {
		t.Errorf("P(tiny) = %q", P(1.31e-113))
	}
	if P(0.05) != "0.050" {
		t.Errorf("P(0.05) = %q", P(0.05))
	}
}

func TestRenderSpecs(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderSpecs(&buf, cluster.Systems()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Emmy", "Meggie", "210 W", "195 W", "Slurm", "Torque"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestRenderFullReport(t *testing.T) {
	ds, err := gen.Generate(gen.EmmyConfig(0.02, 42))
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.AnalyzeAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figs. 1-2", "Fig. 3", "Fig. 4", "Table 2", "Fig. 5",
		"Figs. 6-7", "Figs. 8-10", "Fig. 11", "Fig. 12", "Fig. 13",
		"stranded power", "Spearman",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}

	// Comparison rendering.
	ds2, err := gen.Generate(gen.MeggieConfig(0.02, 42))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.AnalyzeAll(ds2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderComparison(&buf, core.Compare(r, r2)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cross-system") {
		t.Error("comparison header missing")
	}

	// Prediction rendering.
	res, err := mlearn.EvaluateAll(mlearn.SamplesFromDataset(ds), mlearn.EvalConfig{Reps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderPrediction(&buf, "Emmy", res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BDT", "KNN", "FLDA", "Fig 14", "Fig 15"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prediction output missing %q", want)
		}
	}

	// Policy rendering.
	sweep, err := policy.CapSweep(ds, 0.5, 1.0, 6)
	if err != nil {
		t.Fatal(err)
	}
	over, err := policy.EvaluateOverprovision(ds, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	jc, err := policy.EvaluateJobCaps(ds, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderPolicy(&buf, "Emmy", sweep, over, jc); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"what-ifs", "harvested", "throughput gain"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("policy output missing %q", want)
		}
	}
}
