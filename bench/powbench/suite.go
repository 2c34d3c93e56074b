package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// benchSet is what -all writes and -compare reads: one point of the
// repository's performance trajectory (bench/BENCH_<pr>.json).
type benchSet struct {
	Header    setHeader     `json:"header"`
	Workloads []workloadSet `json:"workloads"`
}

type setHeader struct {
	Commit     string         `json:"commit"`
	Date       string         `json:"date"`
	Seed       uint64         `json:"seed"` // run i of a workload uses seed+i
	Seconds    float64        `json:"seconds"`
	Repeat     int            `json:"repeat"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Counts     map[string]any `json:"counts"`
}

type workloadSet struct {
	Name      string                   `json:"name"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	EndToEnd  map[string]metricSummary `json:"end_to_end"`
	PerLayer  map[string]metricValue   `json:"per_layer"`
}

// metricSummary is one end-to-end metric over the runs of a workload:
// each run's value, and their median and quartiles.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func commitOf() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// child runs this binary once as the driver would and parses the result
// off the last line of its output; the lines before it are passed on.
func child(name string, seed uint64, seconds float64, traced int, log io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(traced))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d trace %d: %w", name, seed, traced, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("%s seed %d: outputs were not correct", name, seed)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintf(log, "%s\n", l)
	}
	return res, nil
}

// runAll measures every workload as the driver does — each run a fresh
// process — repeat times untraced and once traced, prints every metric
// and writes the set to out when out is not empty.
func runAll(seed uint64, seconds float64, repeat int, out string, log io.Writer) error {
	if repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	set := benchSet{Header: setHeader{
		Commit: commitOf(), Date: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds, Repeat: repeat,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Counts: map[string]any{
			"round_batches_ingest_mem": roundIngestMem, "round_batches_ingest_wal": roundIngestWAL,
			"round_batches_ingest_repl_sync": roundIngestRepl, "round_queries": roundQueries,
			"recover_batches": recoverBatches, "analyze_scale": analyzeScale, "preload_ticks": preloadTicks,
			"fleet_nodes": fleetNodes, "batch_samples": agentNodes, "setups_per_run": setupRepeats,
		},
	}}
	for _, w := range workloads {
		ws := workloadSet{Name: w.Name, EndToEnd: map[string]metricSummary{}}
		for i := 0; i < repeat; i++ {
			res, err := child(w.Name, seed+uint64(i), seconds, 0, io.Discard)
			if err != nil {
				return err
			}
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			for _, d := range endToEnd {
				s := ws.EndToEnd[d.Name]
				s.Unit = d.Unit
				s.Values = append(s.Values, res.Metrics[d.Name].Value)
				ws.EndToEnd[d.Name] = s
			}
		}
		fmt.Fprintf(log, "== %s: %d untraced runs, seeds %d..%d (%s; op: %s)\n", w.Name, repeat, seed, seed+uint64(repeat)-1, w.Unit, w.Op)
		for _, d := range endToEnd {
			s := ws.EndToEnd[d.Name]
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			ws.EndToEnd[d.Name] = s
			fmt.Fprintf(log, "  %-22s %14.4f %-5s q1 %.4f  q3 %.4f  spread %.1f%%  (%s is better, bound %.0f%%)\n",
				d.Name, s.Median, d.Unit, s.Q1, s.Q3, spread(s.Values)*100, d.Better, d.Bound*100)
		}
		fmt.Fprintf(log, "  attempted %d  failed %d\n", ws.Attempted, ws.Failed)
		res, err := child(w.Name, seed, seconds, 1, log)
		if err != nil {
			return err
		}
		ws.PerLayer = res.Metrics
		set.Workloads = append(set.Workloads, ws)
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func readSet(path string) (benchSet, error) {
	var s benchSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict compares one end-to-end metric of two sets, a the base. Run i
// of a and run i of b used the same seed and form a pair.
//
//	unresolved  either side's own quartile distance, as a share of its
//	            median, is wider than the bound: nothing can be said
//	worse       b's median is worse than a's by more than the bound
//	better      b wins at least nine tenths of the pairs (ties count for
//	            neither) and its median is better by more than a's
//	            quartile distance
//	same        anything else
func verdict(d metricDef, a, b metricSummary) (v string, change float64) {
	if a.Median == 0 {
		return "unresolved", 0
	}
	change = (b.Median - a.Median) / a.Median
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	wins, pairs := 0, 0
	for i := 0; i < len(a.Values) && i < len(b.Values); i++ {
		if a.Values[i] == b.Values[i] {
			continue
		}
		pairs++
		if (b.Values[i] > a.Values[i]) == (d.Better == "higher") {
			wins++
		}
	}
	switch {
	case spread(a.Values) > d.Bound || spread(b.Values) > d.Bound:
		return "unresolved", change
	case worse > d.Bound:
		return "worse", change
	case pairs > 0 && 10*wins >= 9*pairs && -worse > spread(a.Values):
		return "better", change
	}
	return "same", change
}

// compareSets prints one row per workload and end-to-end metric and
// fails when b is worse than a anywhere or failed a larger share of its
// operations.
func compareSets(pathA, pathB string, w io.Writer) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (commit %s, seed %d, %d runs)\nB = %s (commit %s, seed %d, %d runs)\nevery change is (B-A)/A, with A as the base\n\n",
		pathA, a.Header.Commit, a.Header.Seed, a.Header.Repeat, pathB, b.Header.Commit, b.Header.Seed, b.Header.Repeat)
	inB := map[string]workloadSet{}
	for _, ws := range b.Workloads {
		inB[ws.Name] = ws
	}
	counts := map[string]int{}
	var bad []string
	fmt.Fprintf(w, "%-17s %-21s %13s %25s %13s %25s %8s %6s  %s\n", "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			bad = append(bad, wa.Name+" is missing from B")
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v, change := verdict(d, ma, mb)
			counts[v]++
			if v == "worse" {
				bad = append(bad, fmt.Sprintf("%s %s is worse", wa.Name, d.Name))
			}
			fmt.Fprintf(w, "%-17s %-21s %13.4f %25s %13.4f %25s %+7.1f%% %5.0f%%  %s\n", wa.Name, d.Name,
				ma.Median, fmt.Sprintf("[%.4f, %.4f]", ma.Q1, ma.Q3), mb.Median, fmt.Sprintf("[%.4f, %.4f]", mb.Q1, mb.Q3),
				change*100, d.Bound*100, v)
		}
		fa, fb := share(wa.Failed, wa.Attempted), share(wb.Failed, wb.Attempted)
		fmt.Fprintf(w, "%-17s %-21s %13d of %-21d %13d of %-21d\n", wa.Name, "failed operations", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if fb > fa {
			bad = append(bad, fmt.Sprintf("%s failed %.4f%% of its operations in B, %.4f%% in A", wa.Name, fb*100, fa*100))
		}
	}
	fmt.Fprintf(w, "\nbetter %d  same %d  worse %d  unresolved %d\n", counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	if len(bad) > 0 {
		return fmt.Errorf("B does not hold up against A: %v", bad)
	}
	return nil
}

func share(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}
