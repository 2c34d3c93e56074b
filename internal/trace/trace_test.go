package trace

import (
	"math"
	"testing"
	"time"

	"hpcpower/internal/units"
)

var t0 = time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)

func validJob(id uint64) Job {
	return Job{
		ID:              id,
		User:            "u001",
		App:             "GROMACS",
		Nodes:           4,
		Submit:          t0,
		Start:           t0.Add(10 * time.Minute),
		End:             t0.Add(130 * time.Minute),
		ReqWall:         3 * time.Hour,
		AvgPowerPerNode: 150,
		Energy:          units.Joules(150 * 4 * 120 * 60),
	}
}

func TestJobDerived(t *testing.T) {
	j := validJob(1)
	if got := j.Runtime(); got != 2*time.Hour {
		t.Errorf("Runtime = %v", got)
	}
	if got := j.RuntimeMinutes(); got != 120 {
		t.Errorf("RuntimeMinutes = %d", got)
	}
	if got := float64(j.NodeHours()); math.Abs(got-8) > 1e-12 {
		t.Errorf("NodeHours = %v", got)
	}
}

func TestJobValidate(t *testing.T) {
	good := validJob(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Job)
	}{
		{"zero nodes", func(j *Job) { j.Nodes = 0 }},
		{"end before start", func(j *Job) { j.End = j.Start.Add(-time.Minute) }},
		{"start before submit", func(j *Job) { j.Start = j.Submit.Add(-time.Minute) }},
		{"zero walltime", func(j *Job) { j.ReqWall = 0 }},
		{"negative power", func(j *Job) { j.AvgPowerPerNode = -1 }},
		{"negative energy", func(j *Job) { j.Energy = -1 }},
	}
	for _, m := range mutations {
		j := validJob(1)
		m.mut(&j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: expected error", m.name)
		}
	}
}

func testDataset() *Dataset {
	d := &Dataset{
		Meta: Meta{
			System: "Emmy", TotalNodes: 560, NodeTDPW: 210,
			Start: t0, End: t0.Add(24 * time.Hour), Seed: 42,
		},
		Series: map[uint64][]NodeSeries{},
	}
	j1 := validJob(1)
	j2 := validJob(2)
	j2.User = "u002"
	j2.App = "FASTEST"
	j2.Nodes = 8
	j2.Instrumented = true
	j2.TemporalCVPct = 11
	j2.PeakOvershootPct = 12.5
	j2.AvgSpatialSpreadW = 20
	d.Jobs = append(d.Jobs, j1, j2)
	d.Series[2] = []NodeSeries{
		{JobID: 2, Node: 0, Start: j2.Start, Power: []float64{140, 150, 160}},
		{JobID: 2, Node: 1, Start: j2.Start, Power: []float64{150, 155, 145}},
	}
	d.System = []SystemSample{
		{Time: t0, ActiveNodes: 500, TotalPowerW: 70000},
		{Time: t0.Add(time.Minute), ActiveNodes: 510, TotalPowerW: 71500.5},
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	d := testDataset()
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	// Duplicate job IDs.
	dup := testDataset()
	dup.Jobs[1].ID = 1
	delete(dup.Series, 2)
	if err := dup.Validate(); err == nil {
		t.Error("duplicate IDs not caught")
	}
	// Job larger than the cluster.
	big := testDataset()
	big.Jobs[0].Nodes = 561
	if err := big.Validate(); err == nil {
		t.Error("oversized job not caught")
	}
	// Series for unknown job.
	orphan := testDataset()
	orphan.Series[99] = []NodeSeries{{JobID: 99}}
	if err := orphan.Validate(); err == nil {
		t.Error("orphan series not caught")
	}
	// Series keyed under the wrong job.
	wrong := testDataset()
	wrong.Series[1] = []NodeSeries{{JobID: 2}}
	if err := wrong.Validate(); err == nil {
		t.Error("mis-keyed series not caught")
	}
	// Bad meta.
	for _, mut := range []func(*Dataset){
		func(d *Dataset) { d.Meta.TotalNodes = 0 },
		func(d *Dataset) { d.Meta.NodeTDPW = 0 },
	} {
		bad := testDataset()
		mut(bad)
		if err := bad.Validate(); err == nil {
			t.Error("bad meta not caught")
		}
	}
}

func TestDatasetAccessors(t *testing.T) {
	d := testDataset()
	if j := d.Job(2); j == nil || j.App != "FASTEST" {
		t.Errorf("Job(2) = %+v", j)
	}
	if j := d.Job(99); j != nil {
		t.Error("Job(99) should be nil")
	}
	users := d.Users()
	if len(users) != 2 || users[0] != "u001" || users[1] != "u002" {
		t.Errorf("Users = %v", users)
	}
	apps := d.Apps()
	if len(apps) != 2 || apps[0] != "FASTEST" {
		t.Errorf("Apps = %v", apps)
	}
}

func TestSortJobs(t *testing.T) {
	d := &Dataset{}
	a := validJob(3)
	b := validJob(1)
	b.Start = a.Start.Add(-time.Hour)
	b.Submit = b.Start.Add(-time.Minute)
	c := validJob(2)
	c.Start = a.Start // tie with a: ID order
	d.Jobs = []Job{a, b, c}
	d.SortJobs()
	gotIDs := [3]uint64{d.Jobs[0].ID, d.Jobs[1].ID, d.Jobs[2].ID}
	if gotIDs != [3]uint64{1, 2, 3} {
		t.Errorf("sorted IDs = %v", gotIDs)
	}
}
