package core

import (
	"testing"

	"hpcpower/internal/trace"
)

// TestAnalyzeAllRefusesAsBefore: one dataset per refusal of the battery,
// each refused with the error of the first failing step in the battery's
// order, as when the steps ran one after another, and no step panicking
// on a dataset another step refuses: a panic in a concurrent step ends
// the process.
func TestAnalyzeAllRefusesAsBefore(t *testing.T) {
	edit := func(change func(ds *trace.Dataset)) *trace.Dataset {
		ds := tiny()
		change(ds)
		return ds
	}
	jobs := func(change func(i int, j *trace.Job)) *trace.Dataset {
		return edit(func(ds *trace.Dataset) {
			for i := range ds.Jobs {
				change(i, &ds.Jobs[i])
			}
		})
	}
	cases := []struct {
		name string
		ds   *trace.Dataset
		want string
	}{
		{"no system series", edit(func(ds *trace.Dataset) { ds.System = nil }), "core: dataset has no system series"},
		{"one job, no system series, no meta", &trace.Dataset{Jobs: tiny().Jobs[:1]}, "core: dataset has no system series"},
		{"no power budget", edit(func(ds *trace.Dataset) { ds.Meta.NodeTDPW = 0 }), "core: invalid power budget"},
		{"no jobs", edit(func(ds *trace.Dataset) { ds.Jobs = nil }), "core: dataset has no jobs"},
		{"two jobs", edit(func(ds *trace.Dataset) { ds.Jobs = ds.Jobs[:2] }), "core: too few jobs for correlation"},
		{"one job", edit(func(ds *trace.Dataset) { ds.Jobs = ds.Jobs[:1] }), "core: too few jobs for correlation"},
		{"three jobs", edit(func(ds *trace.Dataset) { ds.Jobs = ds.Jobs[:3] }), "core: too few jobs for splits"},
		{"none instrumented", jobs(func(_ int, j *trace.Job) { j.Instrumented = false }), "core: no instrumented jobs"},
		{"no multi-node instrumented", jobs(func(_ int, j *trace.Job) { j.Instrumented = j.Nodes < 2 }), "core: no multi-node instrumented jobs"},
		{"four users", jobs(func(i int, j *trace.Job) { j.User = []string{"u1", "u2", "u3", "u4"}[i%4] }), "core: too few users (4)"},
		{"one job per user", jobs(func(i int, j *trace.Job) { j.User = string(rune('a' + i)) }), "core: no user has 3+ jobs"},
		{"no repeated node count", jobs(func(i int, j *trace.Job) { j.Nodes = i + 2 }), "core: no cluster has 3+ jobs"},
		// A negative node count and TDP make a positive budget, which
		// AnalyzeSystem accepts; Fig. 3's histogram range cannot be built.
		{"negative TDP", edit(func(ds *trace.Dataset) { ds.Meta.TotalNodes, ds.Meta.NodeTDPW = -10, -200 }), "core: invalid node TDP"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := AnalyzeAll(c.ds)
			if err == nil || err.Error() != c.want {
				t.Fatalf("AnalyzeAll = %v, want error %q", err, c.want)
			}
			if r != nil {
				t.Errorf("refused AnalyzeAll returned a report: %+v", r)
			}
		})
	}
	if _, err := AnalyzeAll(tiny()); err != nil {
		t.Errorf("the unedited dataset is refused: %v", err)
	}
}
