package tsdb

import (
	"encoding/json"
	"math"
	"testing"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

// TestJobFingerprintTracksAppend: the fingerprint the store hands the
// detector engine is the job's count, sum, peak and newest time, and a
// trend that has folded each closed minute's mean and variance in minute
// order: every minute but the newest foldLagMinutes.
func TestJobFingerprintTracksAppend(t *testing.T) {
	s := New(Config{Shards: 2, RingLen: 32})
	const base = 1_700_000_040 // a minute's start
	var mom stats.Moments
	var want anomaly.Trend
	var batch []trace.PowerSample
	for i := 0; i < 120; i++ {
		// Two nodes a minute, the second a little higher.
		var minute stats.Moments
		for node := 0; node < 2; node++ {
			w := 150 + 40*math.Sin(float64(i)/9) + float64(node)
			batch = append(batch, trace.PowerSample{Node: node, JobID: 7, Unix: base + int64(i)*60 + int64(node), PowerW: w})
			mom.Add(w)
			minute.Add(w)
		}
		if i < 120-foldLagMinutes {
			want.Update(base+int64(i)*60, minute.Mean(), minute.Variance())
		}
	}
	// Idle samples (job 0) must not touch any fingerprint.
	batch = append(batch, trace.PowerSample{Node: 9, JobID: 0, Unix: base, PowerW: 40})
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	got, ok := s.JobFingerprint(7)
	if !ok {
		t.Fatal("job 7 has no fingerprint")
	}
	if wantFP := (anomaly.Fingerprint{N: 240, Sum: mom.Total(), Max: mom.Max, Last: base + 119*60 + 1, Trend: want}); got != wantFP {
		t.Fatalf("fingerprint diverged from the minute fold:\n got %+v\nwant %+v", got, wantFP)
	}
	if _, ok := s.JobFingerprint(999); ok {
		t.Fatal("unknown job reported a fingerprint")
	}
}

// TestFingerprintSurvivesStateRoundTrip: fingerprints ride ExportState/
// RestoreState/InstallState bit-for-bit, and a restored store continues
// the stream identically to one that never snapshotted.
func TestFingerprintSurvivesStateRoundTrip(t *testing.T) {
	cfg := Config{Shards: 4, RingLen: 64}
	s := New(cfg)
	first := mkJobBatch(3, 0, 80)
	if err := s.Append(first); err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st StoreState
	if err := json.Unmarshal(buf, &st); err != nil {
		t.Fatal(err)
	}

	restored := New(cfg)
	if err := restored.RestoreState(&st); err != nil {
		t.Fatal(err)
	}
	installed := New(cfg)
	if err := installed.InstallState(&st); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Store{restored, installed} {
		got, ok := r.JobFingerprint(3)
		want, _ := s.JobFingerprint(3)
		if !ok || got != want {
			t.Fatalf("fingerprint did not survive the round trip:\n got %+v\nwant %+v", got, want)
		}
	}

	// Continuation equivalence: appending the rest of the stream to the
	// restored store matches the never-snapshotted store.
	rest := mkJobBatch(3, 80, 60)
	if err := s.Append(rest); err != nil {
		t.Fatal(err)
	}
	if err := restored.Append(rest); err != nil {
		t.Fatal(err)
	}
	a, _ := s.JobFingerprint(3)
	b, _ := restored.JobFingerprint(3)
	if a != b {
		t.Fatalf("restored fingerprint diverged after continuation:\n got %+v\nwant %+v", b, a)
	}
}

func mkJobBatch(job uint64, from, n int) []trace.PowerSample {
	out := make([]trace.PowerSample, n)
	for i := range out {
		k := from + i
		out[i] = trace.PowerSample{
			Node: k % 4, JobID: job,
			Unix:   1_700_000_000 + int64(k)*60,
			PowerW: 120 + 50*math.Sin(float64(k)/7) + float64(k%5),
		}
	}
	return out
}

// TestRestoreRejectsInvalidFingerprint: a corrupt fingerprint trend, or
// moments no samples give, in a snapshot fail both restore paths instead
// of poisoning detector math or the analytics.
func TestRestoreRejectsInvalidFingerprint(t *testing.T) {
	cfg := Config{Shards: 2, RingLen: 16}
	s := New(cfg)
	if err := s.Append(mkJobBatch(5, 0, 30)); err != nil {
		t.Fatal(err)
	}
	for name, bend := range map[string]func(*JobStateExport){
		"NaN baseline":    func(j *JobStateExport) { j.Trend.EWSlow = math.NaN() },
		"moments":         func(j *JobStateExport) { j.Moments.Min = j.Moments.Max + 1 },
		"spread moments":  func(j *JobStateExport) { j.Spread.N = -1 },
		"squares too low": func(j *JobStateExport) { j.Moments.SumSq = [3]uint64{} },
	} {
		st := s.ExportState()
		bend(&st.Jobs[0])
		if err := New(cfg).RestoreState(st); err == nil {
			t.Errorf("%s: RestoreState accepted it", name)
		}
		if err := New(cfg).InstallState(st); err == nil {
			t.Errorf("%s: InstallState accepted it", name)
		}
	}

	// A job with no closed minute has a zero trend, and restores fine:
	// the detectors just restart their warmup.
	st2 := s.ExportState()
	st2.Jobs[0].Trend = anomaly.Trend{}
	r := New(cfg)
	if err := r.RestoreState(st2); err != nil {
		t.Fatalf("zero trend rejected: %v", err)
	}
	if fp, ok := r.JobFingerprint(5); !ok || fp.Trend != (anomaly.Trend{}) || fp.N != 30 {
		t.Fatalf("zero trend not preserved: %+v", fp)
	}
}
