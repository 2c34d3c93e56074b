// Package hpcpower reproduces "What does Power Consumption Behavior of
// HPC Jobs Reveal? Demystifying, Quantifying, and Predicting Power
// Consumption Characteristics" (IPDPS 2020) as a Go library.
//
// It provides, end to end:
//
//   - a calibrated synthesizer of the study's two production systems
//     (Emmy and Meggie) producing five-month power-trace datasets in the
//     released format — the substitution for the Zenodo dataset;
//   - the paper's characterization analyses: one function per table and
//     figure (system/power utilization, per-node power distributions,
//     application power, correlations, temporal and spatial variance,
//     user-level concentration and variability);
//   - pre-execution power prediction with Binary Decision Tree, KNN and
//     Fisher LDA models plus the paper's 80/20×10 evaluation; and
//   - the power-policy what-ifs of the discussion section (system caps,
//     over-provisioning, static per-job caps).
//
// Quickstart:
//
//	ds, err := hpcpower.GenerateEmmy(0.1, 42)  // 10% of the 5-month study
//	rep, err := hpcpower.Analyze(ds)            // every figure and table
//	res, err := hpcpower.EvaluatePredictors(ds, 7)
//	hpcpower.WriteReport(os.Stdout, rep)
package hpcpower

import (
	"fmt"
	"io"

	"hpcpower/internal/cluster"
	"hpcpower/internal/core"
	"hpcpower/internal/gen"
	"hpcpower/internal/mlearn"
	"hpcpower/internal/policy"
	"hpcpower/internal/report"
	"hpcpower/internal/trace"
)

// Re-exported core types. Aliases keep the public API in one import path
// while the implementation lives in focused internal packages.
type (
	// Dataset is a complete power-trace release: job table, cluster
	// minute series, and per-node sample series for instrumented jobs.
	Dataset = trace.Dataset
	// Job is one job record of the released trace.
	Job = trace.Job
	// Meta describes the system and observation window of a dataset.
	Meta = trace.Meta
	// SystemSpec is a machine description (Table 1).
	SystemSpec = cluster.Spec
	// GenConfig parameterizes dataset synthesis.
	GenConfig = gen.Config
	// Report bundles every single-system analysis of the paper.
	Report = core.Report
	// Comparison contrasts two systems (ranking flips, per-app deltas).
	Comparison = core.Comparison
	// EvalResult is a prediction model's Fig. 14/15 evaluation.
	EvalResult = mlearn.EvalResult
	// PredictModel is a trainable per-node power predictor.
	PredictModel = mlearn.Model
	// PredictFeatures are the pre-execution features (user, nodes, wall).
	PredictFeatures = mlearn.Features
	// CapResult evaluates one system-level power cap.
	CapResult = policy.CapResult
	// Overprovision sizes the machine under its original power budget.
	Overprovision = policy.Overprovision
)

// Emmy returns the Table 1 specification of the Emmy system.
func Emmy() SystemSpec { return cluster.Emmy() }

// Meggie returns the Table 1 specification of the Meggie system.
func Meggie() SystemSpec { return cluster.Meggie() }

// GenerateEmmy synthesizes an Emmy dataset. scale in (0,1] scales the
// five-month observation window (1.0 ≈ 48k jobs); seed fixes the dataset.
func GenerateEmmy(scale float64, seed uint64) (*Dataset, error) {
	return gen.Generate(gen.EmmyConfig(scale, seed))
}

// GenerateMeggie synthesizes a Meggie dataset (scale 1.0 ≈ 36k jobs).
func GenerateMeggie(scale float64, seed uint64) (*Dataset, error) {
	return gen.Generate(gen.MeggieConfig(scale, seed))
}

// EmmyConfig and MeggieConfig expose the default generation configs for
// callers that want to tune load, users, or retention before Generate.
func EmmyConfig(scale float64, seed uint64) GenConfig   { return gen.EmmyConfig(scale, seed) }
func MeggieConfig(scale float64, seed uint64) GenConfig { return gen.MeggieConfig(scale, seed) }

// Generate synthesizes a dataset from an explicit config.
func Generate(cfg GenConfig) (*Dataset, error) { return gen.Generate(cfg) }

// Load reads a dataset directory written by (*Dataset).Save.
func Load(dir string) (*Dataset, error) { return trace.Load(dir) }

// Analyze runs every characterization analysis of the paper on a dataset.
func Analyze(ds *Dataset) (*Report, error) { return core.AnalyzeAll(ds) }

// Compare contrasts two analyzed systems (conventionally Emmy, Meggie).
func Compare(a, b *Report) *Comparison { return core.Compare(a, b) }

// NewBDT returns the paper's best predictor (binary decision tree) with
// the Fig. 14 parameters, ready for Fit/Predict.
func NewBDT() PredictModel { return mlearn.NewBDT(mlearn.DefaultTreeParams()) }

// NewKNN returns the k-nearest-neighbour predictor.
func NewKNN() PredictModel { return mlearn.NewKNN(mlearn.DefaultKNNParams()) }

// NewFLDA returns the Fisher linear discriminant predictor.
func NewFLDA() PredictModel { return mlearn.NewFLDA(mlearn.DefaultFLDAParams()) }

// TrainingSamples extracts (user, nodes, walltime) → power samples from a
// dataset for use with the predictors.
func TrainingSamples(ds *Dataset) []mlearn.Sample { return mlearn.SamplesFromDataset(ds) }

// SaveBDT serializes a fitted BDT as JSON. The model must come from
// NewBDT (the other predictors have no serial format).
func SaveBDT(w io.Writer, m PredictModel) error {
	t, ok := m.(*mlearn.BDT)
	if !ok {
		return fmt.Errorf("hpcpower: model %s is not a BDT", m.Name())
	}
	return t.Save(w)
}

// SaveBDTFile writes a fitted BDT to a model file powserved can load.
func SaveBDTFile(path string, m PredictModel) error {
	t, ok := m.(*mlearn.BDT)
	if !ok {
		return fmt.Errorf("hpcpower: model %s is not a BDT", m.Name())
	}
	return t.SaveFile(path)
}

// LoadBDT reads a model written by SaveBDT; predictions from the loaded
// model are bit-identical to the saved one.
func LoadBDT(r io.Reader) (PredictModel, error) { return mlearn.LoadBDT(r) }

// LoadBDTFile reads a model file written by SaveBDTFile.
func LoadBDTFile(path string) (PredictModel, error) { return mlearn.LoadBDTFile(path) }

// EvaluatePredictors reproduces Figs. 14-15: BDT, KNN and FLDA under the
// same ten stratified 80/20 splits. The splits are evaluated on every
// available core; the results depend on ds and seed alone, not on the
// core count.
func EvaluatePredictors(ds *Dataset, seed uint64) ([]EvalResult, error) {
	return mlearn.EvaluateAll(mlearn.SamplesFromDataset(ds), mlearn.DefaultEvalConfig(seed))
}

// EvaluateCap evaluates a whole-system power cap at capFrac of the
// TDP-provisioned budget.
func EvaluateCap(ds *Dataset, capFrac float64) (CapResult, error) {
	return policy.EvaluateCap(ds, capFrac)
}

// SafeCap returns the lowest system cap that throttles at most
// maxThrottledPct of minutes.
func SafeCap(ds *Dataset, maxThrottledPct float64) (CapResult, error) {
	return policy.SafeCap(ds, maxThrottledPct)
}

// EvaluateOverprovision sizes the machine with nodes budgeted at the
// given percentile of observed per-node power instead of TDP.
func EvaluateOverprovision(ds *Dataset, pctile float64) (Overprovision, error) {
	return policy.EvaluateOverprovision(ds, pctile)
}

// WriteReport renders a full analysis report as text.
func WriteReport(w io.Writer, r *Report) error { return report.RenderReport(w, r) }

// WriteComparison renders the cross-system comparison as text.
func WriteComparison(w io.Writer, cmp *Comparison) error { return report.RenderComparison(w, cmp) }

// WritePrediction renders the Figs. 14-15 evaluation as text.
func WritePrediction(w io.Writer, system string, results []EvalResult) error {
	return report.RenderPrediction(w, system, results)
}

// WriteSpecs renders Table 1 for the given systems.
func WriteSpecs(w io.Writer, specs []SystemSpec) error { return report.RenderSpecs(w, specs) }
