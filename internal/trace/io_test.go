package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestJobsCSVRoundTrip(t *testing.T) {
	d := testDataset()
	var buf bytes.Buffer
	if err := d.WriteJobsCSV(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	var got Dataset
	if err := got.ReadJobsCSV(&buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.Jobs) != len(d.Jobs) {
		t.Fatalf("job count = %d, want %d", len(got.Jobs), len(d.Jobs))
	}
	for i := range d.Jobs {
		if !jobsEqual(&d.Jobs[i], &got.Jobs[i]) {
			t.Errorf("job %d round-trip mismatch:\n want %+v\n got  %+v", i, d.Jobs[i], got.Jobs[i])
		}
	}
}

// jobsEqual compares jobs allowing for float formatting precision.
func jobsEqual(a, b *Job) bool {
	fe := func(x, y float64) bool {
		if x == 0 && y == 0 {
			return true
		}
		return math.Abs(x-y) <= 1e-6*math.Max(math.Abs(x), math.Abs(y))
	}
	return a.ID == b.ID && a.User == b.User && a.App == b.App &&
		a.Nodes == b.Nodes && a.Submit.Equal(b.Submit) &&
		a.Start.Equal(b.Start) && a.End.Equal(b.End) && a.ReqWall == b.ReqWall &&
		fe(float64(a.AvgPowerPerNode), float64(b.AvgPowerPerNode)) &&
		fe(float64(a.Energy), float64(b.Energy)) &&
		a.Instrumented == b.Instrumented &&
		fe(a.TemporalCVPct, b.TemporalCVPct) &&
		fe(a.PeakOvershootPct, b.PeakOvershootPct) &&
		fe(a.AvgSpatialSpreadW, b.AvgSpatialSpreadW)
}

func TestJobsCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"short header", "job_id,user\n"},
		{"bad id", strings.Join(jobsHeader, ",") + "\nnotanum," + strings.Repeat("1,", 16) + "1\n"},
	}
	for _, c := range cases {
		var d Dataset
		if err := d.ReadJobsCSV(strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSystemCSVRoundTrip(t *testing.T) {
	d := testDataset()
	var buf bytes.Buffer
	if err := d.WriteSystemCSV(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	var got Dataset
	if err := got.ReadSystemCSV(&buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.System) != 2 {
		t.Fatalf("system samples = %d", len(got.System))
	}
	if !got.System[0].Time.Equal(d.System[0].Time) ||
		got.System[0].ActiveNodes != 500 ||
		math.Abs(got.System[1].TotalPowerW-71500.5) > 1e-6 {
		t.Errorf("system round-trip mismatch: %+v", got.System)
	}
}

func TestSeriesCSVRoundTrip(t *testing.T) {
	d := testDataset()
	var buf bytes.Buffer
	if err := d.WriteSeriesCSV(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := Dataset{}
	if err := got.ReadSeriesCSV(&buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.Series) != 1 {
		t.Fatalf("series jobs = %d", len(got.Series))
	}
	ns := got.Series[2]
	if len(ns) != 2 {
		t.Fatalf("series per job = %d", len(ns))
	}
	if !reflect.DeepEqual(ns[0].Power, []float64{140, 150, 160}) {
		t.Errorf("node 0 power = %v", ns[0].Power)
	}
	if ns[1].Node != 1 || !ns[1].Start.Equal(d.Jobs[1].Start) {
		t.Errorf("node 1 meta = %+v", ns[1])
	}
}

func TestSeriesCSVOrderErrors(t *testing.T) {
	header := "job_id,node,idx,time_unix,power_w\n"
	cases := []struct {
		name string
		body string
	}{
		{"starts mid-series", header + "1,0,3,1538352000,100\n"},
		{"gap in idx", header + "1,0,0,1538352000,100\n1,0,2,1538352120,100\n"},
	}
	for _, c := range cases {
		var d Dataset
		if err := d.ReadSeriesCSV(strings.NewReader(c.body)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := testDataset()
	if err := d.Save(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Meta.System != "Emmy" || got.Meta.TotalNodes != 560 ||
		got.Meta.NodeTDPW != 210 || got.Meta.Seed != 42 {
		t.Errorf("meta = %+v", got.Meta)
	}
	if !got.Meta.Start.Equal(d.Meta.Start) {
		t.Errorf("meta start = %v", got.Meta.Start)
	}
	if len(got.Jobs) != 2 || len(got.System) != 2 || len(got.Series) != 1 {
		t.Errorf("sizes: jobs=%d system=%d series=%d", len(got.Jobs), len(got.System), len(got.Series))
	}
	if err := got.Validate(); err != nil {
		t.Errorf("loaded dataset invalid: %v", err)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("expected error for missing dataset")
	}
}

func TestWriteJobsCSVGolden(t *testing.T) {
	// Pin the schema: the header row is part of the released-data contract.
	var d Dataset
	var buf bytes.Buffer
	if err := d.WriteJobsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(jobsHeader, ",") + "\n"
	if buf.String() != want {
		t.Errorf("header = %q, want %q", buf.String(), want)
	}
}

func BenchmarkJobsCSVWrite(b *testing.B) {
	d := &Dataset{}
	base := validJob(0)
	for i := 0; i < 5000; i++ {
		j := base
		j.ID = uint64(i)
		d.Jobs = append(d.Jobs, j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := d.WriteJobsCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJobsCSVRead(b *testing.B) {
	d := &Dataset{}
	base := validJob(0)
	for i := 0; i < 5000; i++ {
		j := base
		j.ID = uint64(i)
		d.Jobs = append(d.Jobs, j)
	}
	var buf bytes.Buffer
	if err := d.WriteJobsCSV(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got Dataset
		if err := got.ReadJobsCSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSaveCompressedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := testDataset()
	if err := d.SaveCompressed(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	// Uncompressed series must not exist; gz must.
	if _, err := os.Stat(filepath.Join(dir, "series.csv")); !os.IsNotExist(err) {
		t.Error("plain series.csv present after compressed save")
	}
	if _, err := os.Stat(filepath.Join(dir, "series.csv.gz")); err != nil {
		t.Fatalf("series.csv.gz missing: %v", err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(got.Series) != 1 || len(got.Series[2]) != 2 {
		t.Fatalf("series round trip: %d", len(got.Series))
	}
	if !reflect.DeepEqual(got.Series[2][0].Power, d.Series[2][0].Power) {
		t.Errorf("power mismatch after gzip round trip")
	}
}

func TestSaveCompressedReplacesPlain(t *testing.T) {
	dir := t.TempDir()
	d := testDataset()
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveCompressed(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "series.csv")); !os.IsNotExist(err) {
		t.Error("stale plain series.csv survives compressed save")
	}
	if _, err := Load(dir); err != nil {
		t.Fatalf("load after replace: %v", err)
	}
}
