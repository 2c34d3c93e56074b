package report

import (
	"bytes"
	"strings"
	"testing"

	"hpcpower/internal/core"
	"hpcpower/internal/gen"
	"hpcpower/internal/mlearn"
)

func TestWriteMarkdown(t *testing.T) {
	e, err := gen.Generate(gen.EmmyConfig(0.02, 42))
	if err != nil {
		t.Fatal(err)
	}
	m, err := gen.Generate(gen.MeggieConfig(0.02, 42))
	if err != nil {
		t.Fatal(err)
	}
	re, err := core.AnalyzeAll(e)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.AnalyzeAll(m)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := mlearn.EvaluateAll(mlearn.SamplesFromDataset(e), mlearn.EvalConfig{Reps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	claims := core.CheckClaims(re, rm, map[string][]core.PredSummary{
		"Emmy": {{Model: "BDT", FracBelow10: 90}, {Model: "FLDA", FracBelow10: 50}},
	})
	var buf bytes.Buffer
	err = WriteMarkdown(&buf, MarkdownInput{
		Scale: 0.02, Seed: 42,
		Reports:     []*core.Report{re, rm},
		Predictions: map[string][]mlearn.EvalResult{"Emmy": preds},
		Claims:      claims,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# hpcpower reproduction report",
		"## System level", "## Job level", "## Temporal & spatial",
		"## User level", "## Prediction", "## Paper claims",
		"| Emmy |", "| Meggie |", "| BDT |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Every markdown table row is well formed (starts and ends with |).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "|") && !strings.HasSuffix(line, "|") {
			t.Errorf("ragged table row: %q", line)
		}
	}
}

func TestWriteMarkdownPropagatesErrors(t *testing.T) {
	err := WriteMarkdown(failWriter{}, MarkdownInput{})
	if err == nil {
		t.Error("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "boom" }
