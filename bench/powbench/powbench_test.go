package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"hpcpower/internal/trace"
)

func TestFleetIsAFunctionOfTheSeed(t *testing.T) {
	body := func(seed uint64, agent, tick int) []byte {
		f := NewFleet(seed)
		return AppendBatch(nil, AgentName(agent), uint64(tick+1), f.Batch(nil, agent, tick))
	}
	for _, tick := range []int{0, 1, 1439, 5000} {
		for agent := 0; agent < fleetAgents; agent++ {
			if !bytes.Equal(body(7, agent, tick), body(7, agent, tick)) {
				t.Fatalf("agent %d tick %d: same seed, different bodies", agent, tick)
			}
			if bytes.Equal(body(7, agent, tick), body(8, agent, tick)) {
				t.Fatalf("agent %d tick %d: seeds 7 and 8 give the same body", agent, tick)
			}
		}
	}
	// The oracle recomputes single samples; they must be the batch's.
	f := NewFleet(7)
	seen := map[int]bool{}
	for agent := 0; agent < fleetAgents; agent++ {
		for _, s := range f.Batch(nil, agent, 777) {
			seen[s.Node] = true
			if s.JobID != f.JobAt(s.Node, 777) || s.PowerW != f.PowerAt(s.Node, 777) || s.Unix != TickUnix(777) || s.Node/agentNodes != agent {
				t.Fatalf("batch sample %+v disagrees with JobAt/PowerAt", s)
			}
			if s.PowerW != math.Round(s.PowerW*10)/10 || s.PowerW < 50 || s.PowerW > 400 {
				t.Fatalf("sample power %v is not a plausible 0.1 W reading", s.PowerW)
			}
		}
	}
	if len(seen) != fleetNodes {
		t.Fatalf("one tick covers %d nodes, want %d", len(seen), fleetNodes)
	}
	for _, s := range f.slots {
		if s.n < 1 || s.n > 64 || s.first/agentNodes != (s.first+s.n-1)/agentNodes {
			t.Fatalf("slot %+v is not 1–64 nodes inside one agent", s)
		}
	}
}

func TestAppendBatchDecodesLikeEncodingJSON(t *testing.T) {
	f := NewFleet(3)
	want := trace.SampleBatch{AgentID: AgentName(1), Seq: 99, Samples: f.Batch(nil, 1, 12)}
	want.Samples = append(want.Samples, trace.PowerSample{Node: 5, JobID: 0, Unix: 1, PowerW: 0.123456789}, trace.PowerSample{Node: 6, JobID: 1, Unix: 2, PowerW: 300})
	var got, viaJSON trace.SampleBatch
	if err := json.Unmarshal(AppendBatch(nil, want.AgentID, want.Seq, want.Samples), &got); err != nil {
		t.Fatal(err)
	}
	std, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(std, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, viaJSON) {
		t.Fatalf("append encoder and encoding/json decode to different batches")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStatistics(t *testing.T) {
	// statistics.quantiles([…], n=4) of Python 3.12, the driver's rule.
	for _, c := range []struct {
		xs             []float64
		q1, med, q3, s float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{10, 30, 20}, 10, 20, 30, 1},
		{[]float64{5, 1}, 0, 3, 6, 2}, // Python extrapolates past the data
		{[]float64{102, 98, 100, 101, 99}, 98.5, 100, 101.5, 0.03},
		{[]float64{4}, 4, 4, 4, 0},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med || math.Abs(spread(c.xs)-c.s) > 1e-12 {
			t.Errorf("%v: q1 %v median %v q3 %v spread %v, want %v %v %v %v", c.xs, q1, median(c.xs), q3, spread(c.xs), c.q1, c.med, c.q3, c.s)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if percentile(xs, 99) != 990 || percentile(xs, 50) != 500 || percentile(xs, 100) != 1000 {
		t.Errorf("nearest-rank percentiles of 1..1000: p99 %v p50 %v p100 %v", percentile(xs, 99), percentile(xs, 50), percentile(xs, 100))
	}
	// A tail is only reported with at least ten samples beyond it.
	for n, want := range map[int]float64{1000: 99, 999: 95, 200: 95, 199: 90, 100: 90, 99: 75, 40: 75, 39: 0} {
		if _, p := tail(xs[:n]); p != want {
			t.Errorf("%d samples: tail is p%v, want p%v", n, p, want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestManifestIsBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the metric tables; regenerate it with `powbench -manifest`")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %+v is malformed", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	if !hasSetup || len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(got) > 64<<10 {
		t.Errorf("manifest breaks a limit of the benchmark contract")
	}
}

func TestVerdict(t *testing.T) {
	sum := func(xs ...float64) metricSummary {
		q1, q3 := quartiles(xs)
		return metricSummary{Median: median(xs), Q1: q1, Q3: q3, Values: xs}
	}
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.10}
	base := sum(99, 100, 101, 100, 100)
	for _, c := range []struct {
		d    metricDef
		b    metricSummary
		want string
	}{
		{lower, sum(100, 101, 100, 99, 100), "same"},
		{lower, sum(111, 112, 111, 110, 111), "worse"},
		{lower, sum(109, 108, 109, 109, 110), "same"}, // inside the bound
		{lower, sum(90, 91, 90, 89, 90), "better"},
		{lower, sum(90, 91, 102, 89, 90), "same"}, // better median, but only 4 of 5 pairs won
		{higher, sum(90, 91, 90, 89, 90), "same"},
		{higher, sum(85, 86, 85, 84, 85), "worse"},
		{higher, sum(120, 121, 120, 119, 120), "better"},
		{lower, sum(80, 120, 100, 60, 140), "unresolved"},
	} {
		if got, _ := verdict(c.d, base, c.b); got != c.want {
			t.Errorf("%s is better, B median %v: verdict %s, want %s", c.d.Better, c.b.Median, got, c.want)
		}
	}
}

// TestSmoke runs every workload at a hundredth of its size, untraced
// and traced, with the correctness oracle on, and checks that each run
// reports exactly the declared metrics.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // only wall time matters here; the numbers are not looked at
			e := &env{name: w.Name, seed: 11, dir: t.TempDir(), out: t.TempDir(), div: 100}
			res, err := runUntraced(w, e, 0.05, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
				t.Fatalf("untraced result %+v", res)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
			res, err = runTraced(w, e, 0.3, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced result: %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			nonZero := 0
			for _, d := range perLayer {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s = %+v", d.Name, v)
				}
				if v.Value != 0 {
					nonZero++
				}
			}
			if nonZero < 8 {
				t.Errorf("only %d per-layer metrics are non-zero", nonZero)
			}
			if strings.HasPrefix(w.Name, "ingest-") || w.Name == "query-mixed" {
				var spans []span
				data, err := os.ReadFile(filepath.Join(e.out, "trace-"+w.Name+".json"))
				if err == nil {
					err = json.Unmarshal(data, &spans)
				}
				if err != nil || len(spans) == 0 || spans[0].Name != "http" || spans[0].Trace == "" {
					t.Errorf("traced run left no usable span file: %v", err)
				}
			}
		})
	}
}
