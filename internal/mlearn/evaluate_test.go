package mlearn

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"hpcpower/internal/gen"
)

// TestEvaluateAllSameAtAnyCoreCount: the splits run concurrently, the
// results must not show it — same bytes on 1, 2 and 8 cores and on a
// second call.
func TestEvaluateAllSameAtAnyCoreCount(t *testing.T) {
	ds, err := gen.Generate(gen.EmmyConfig(0.02, 42))
	if err != nil {
		t.Fatal(err)
	}
	data := SamplesFromDataset(ds)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []EvalResult
	for _, procs := range []int{1, 2, 8, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := EvaluateAll(data, DefaultEvalConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Errorf("GOMAXPROCS=%d: results differ from the single-core run", procs)
		}
	}

	// BDT and FLDA as the sequential harness of PR 21 computed them for
	// this dataset and seed (KNN's tie rule changed since, theirs did
	// not). A different split, training order or pooling order moves these
	// in the second or third digit.
	headline := func(r EvalResult) [6]float64 {
		return [6]float64{float64(r.N), r.MeanErrPct, r.MedianErrPct, r.FracBelow5Pct, r.FracBelow10, r.FracUsersBelow5}
	}
	want := map[string][6]float64{
		"BDT":  {1117, 5.706068810675331, 1.4394951254182102, 79.23008057296329, 86.92927484333035, 32.6530612244898},
		"FLDA": {1117, 12.49758484215389, 7.3465928018463265, 42.43509400179051, 59.71351835273053, 14.285714285714285},
	}
	for _, r := range first {
		exp, pinned := want[r.Model]
		if !pinned {
			continue
		}
		got := headline(r)
		for i := range exp {
			// Not ==: an architecture that fuses multiply-adds rounds
			// the last bits differently.
			if math.Abs(got[i]-exp[i]) > 1e-9*exp[i] {
				t.Errorf("%s: N, mean, median, <5%%, <10%%, users<5%% = %v, want %v", r.Model, got, exp)
				break
			}
		}
	}

	// Evaluate draws the same splits EvaluateAll shares between the models.
	knn, err := Evaluate(data, func() Model { return NewKNN(DefaultKNNParams()) }, DefaultEvalConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(knn, first[1]) {
		t.Errorf("Evaluate(KNN) differs from EvaluateAll's KNN result")
	}
}

// failingModel fails Fit with err; before it does, it waits for wait and
// afterwards closes done (either may be nil).
type failingModel struct {
	err        error
	wait, done chan struct{}
}

func (m *failingModel) Name() string { return "failing" }
func (m *failingModel) Fit([]Sample) error {
	if m.wait != nil {
		<-m.wait
	}
	if m.done != nil {
		defer close(m.done)
	}
	return m.err
}
func (m *failingModel) Predict(Features) float64 { return 100 }

// TestEvaluateReturnsFirstFailingRep: repetitions 3 and 6 fail, and 3 is
// held back until 6 has failed; the error returned is still 3's, the one
// a sequential run would have stopped at.
func TestEvaluateReturnsFirstFailingRep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	laterFailed := make(chan struct{})
	rep := -1
	factory := func() Model {
		rep++ // factory runs on Evaluate's caller only: no lock
		switch rep {
		case 3:
			return &failingModel{err: fmt.Errorf("rep %d", rep), wait: laterFailed}
		case 6:
			return &failingModel{err: fmt.Errorf("rep %d", rep), done: laterFailed}
		}
		return &failingModel{}
	}
	_, err := Evaluate(synthetic(200, 0, 14), factory, DefaultEvalConfig(1))
	if err == nil || err.Error() != "rep 3" {
		t.Errorf("Evaluate error = %v, want rep 3's", err)
	}
	if rep != 9 {
		t.Errorf("factory called %d times, want once per repetition", rep+1)
	}
}
