package core

import (
	"testing"
	"time"

	"hpcpower/internal/gen"
)

func TestMonthlyConsistencyOnGenerated(t *testing.T) {
	// A ~38-day slice spans two calendar months.
	ds, err := gen.Generate(gen.EmmyConfig(0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	mc, err := AnalyzeMonthlyConsistency(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Months) < 2 {
		t.Fatalf("months = %d", len(mc.Months))
	}
	// Chronological order.
	for i := 1; i < len(mc.Months); i++ {
		a, b := mc.Months[i-1], mc.Months[i]
		ta := time.Date(a.Year, a.Month, 1, 0, 0, 0, 0, time.UTC)
		tb := time.Date(b.Year, b.Month, 1, 0, 0, 0, 0, time.UTC)
		if !ta.Before(tb) {
			t.Errorf("months out of order: %v >= %v", ta, tb)
		}
	}
	// The paper's robustness claim: the Fig. 3 characteristics are stable
	// across months. Monthly means should deviate little from the whole.
	if mc.MaxMeanDeviationPct > 8 {
		t.Errorf("max monthly mean deviation = %v%%, want stable (<8%%)", mc.MaxMeanDeviationPct)
	}
	total := 0
	for _, m := range mc.Months {
		if m.Jobs <= 0 || m.MeanW <= 0 {
			t.Errorf("degenerate month: %+v", m)
		}
		total += m.Jobs
	}
	if total != len(ds.Jobs) {
		t.Errorf("months cover %d of %d jobs", total, len(ds.Jobs))
	}
}

func TestMonthlyConsistencyErrors(t *testing.T) {
	empty := tiny()
	empty.Jobs = nil
	if _, err := AnalyzeMonthlyConsistency(empty); err == nil {
		t.Error("empty dataset accepted")
	}
}
