package trace

import "testing"

func TestFilterJobs(t *testing.T) {
	d := testDataset()
	got := d.FilterJobs(func(j *Job) bool { return j.Nodes >= 8 })
	if len(got.Jobs) != 1 || got.Jobs[0].ID != 2 {
		t.Fatalf("filtered jobs = %+v", got.Jobs)
	}
	// The kept job's series travel with it.
	if len(got.Series) != 1 || len(got.Series[2]) != 2 {
		t.Errorf("series = %v", got.Series)
	}
	// Original untouched.
	if len(d.Jobs) != 2 {
		t.Error("filter mutated the original")
	}
}

func TestByAppByUserMultiNode(t *testing.T) {
	d := testDataset()
	if got := d.ByApp("FASTEST"); len(got.Jobs) != 1 || got.Jobs[0].App != "FASTEST" {
		t.Errorf("ByApp = %+v", got.Jobs)
	}
	if got := d.MultiNode(2); len(got.Jobs) != 2 {
		t.Errorf("MultiNode(2) = %d jobs", len(got.Jobs))
	}
	if got := d.MultiNode(100); len(got.Jobs) != 0 {
		t.Errorf("MultiNode(100) = %d jobs", len(got.Jobs))
	}
}
