package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// env is what a workload is built from: the seed its inputs derive
// from, a scratch directory it owns, and a divisor that shrinks every
// fixed count (1 in real runs; the harness self-test smokes at 100).
type env struct {
	name string // the workload's name
	seed uint64
	dir  string
	out  string // where a traced run writes its spans
	div  int
	n    int // scratch sub-directories handed out so far
}

// count scales a fixed work count for the smoke test, never below min.
func (e *env) count(full, min int) int {
	if n := full / e.div; n > min {
		return n
	}
	return min
}

// scratch returns a fresh empty directory under the run's own.
func (e *env) scratch(name string) (string, error) {
	e.n++
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, e.n))
	return d, os.MkdirAll(d, 0o755)
}

// roundStats is what one measured round of a workload reports.
type roundStats struct {
	ops, failed int64
	work        float64       // work units completed (see workloadDef.Unit)
	busy        time.Duration // wall time the work took
	lat         []float64     // latency of each primary operation, ms
	cpu         time.Duration // process CPU time spent over busy
	alloc       uint64        // bytes allocated over busy
	extra       map[string][]float64
}

// instance is one set-up workload.
type instance interface {
	// Round runs the workload's fixed amount of work once.
	Round() (roundStats, error)
	// Verify checks the program's outputs against the reference.
	Verify() error
	// Layers times the workload's batches against each layer's public
	// calls for about budget and stores the per-layer metrics.
	Layers(budget time.Duration, m layerMetrics) error
	Close() error
}

type layerMetrics map[string]float64

type workloadDef struct {
	Name  string
	Why   string
	Unit  string // the work unit of work_per_s on this workload
	Op    string // the primary operation op_p50_ms times
	Setup func(e *env) (instance, error)
}

// usage is the process-wide cost counters the per-work metrics derive from.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), alloc: ms.TotalAlloc}
}

// measure runs fn and returns its wall time and what the process spent.
func measure(fn func() error) (busy, cpu time.Duration, alloc uint64, err error) {
	u0 := readUsage()
	t0 := time.Now()
	err = fn()
	busy = time.Since(t0)
	u1 := readUsage()
	return busy, u1.cpu - u0.cpu, u1.alloc - u0.alloc, err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const (
	setupRepeats = 3 // set-ups per run; setup_s is their median
	minRounds    = 3
)

// runUntraced sets the workload up setupRepeats times, runs one warm-up
// round, then measured rounds until seconds have passed, and verifies
// the outputs. Each end-to-end metric is the median over the rounds, its
// times corrected for the machine's speed around each round (calib.go).
func runUntraced(w workloadDef, e *env, seconds float64, log io.Writer) (result, error) {
	var setups []float64
	var inst instance
	calibrate() // the first pass pays for cold caches and lazy initialisation
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.Close(); err != nil {
				return result{}, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		c0 := calibrate()
		t0 := time.Now()
		var err error
		if inst, err = w.Setup(e); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds()*speed(c0, calibrate()))
	}
	closed := false
	defer func() {
		if !closed {
			inst.Close()
		}
	}()
	if _, err := inst.Round(); err != nil {
		return result{}, fmt.Errorf("warm-up round: %w", err)
	}
	var (
		rate, p50, cpu, alloc []float64 // per round, as measured
		lat, speeds           []float64
		attempted, failed     int64
		extra                 = map[string][]float64{}
	)
	start, c0 := time.Now(), calibrate()
	for n := 0; n < minRounds || time.Since(start).Seconds() < seconds; n++ {
		r, err := inst.Round()
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", n, err)
		}
		c1 := calibrate()
		speeds = append(speeds, speed(c0, c1))
		c0 = c1
		attempted += r.ops
		failed += r.failed
		if r.work <= 0 || r.busy <= 0 {
			return result{}, fmt.Errorf("round %d completed no work", n)
		}
		rate = append(rate, r.work/r.busy.Seconds())
		p50 = append(p50, median(r.lat))
		cpu = append(cpu, us(r.cpu)/r.work)
		alloc = append(alloc, float64(r.alloc)/r.work)
		lat = append(lat, r.lat...)
		for k, v := range r.extra {
			extra[k] = append(extra[k], v...)
		}
	}
	if err := inst.Verify(); err != nil {
		return result{}, fmt.Errorf("correctness: %w", err)
	}
	closed = true
	if err := inst.Close(); err != nil {
		return result{}, fmt.Errorf("close: %w", err)
	}
	// corrected scales each round's value by that round's machine speed:
	// times are multiplied with it, rates divided by it.
	corrected := func(xs []float64, isTime bool) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			if out[i] = x / speeds[i]; isTime {
				out[i] = x * speeds[i]
			}
		}
		return out
	}
	cRate, cP50 := corrected(rate, false), corrected(p50, true)
	values := map[string]float64{
		"setup_s":              median(setups),
		"work_per_s":           median(cRate),
		"op_p50_ms":            median(cP50),
		"cpu_us_per_work":      median(corrected(cpu, true)),
		"alloc_bytes_per_work": median(alloc),
	}
	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(log, "workload %s  seed %d  %d rounds  work unit: %s  op: %s\n", w.Name, e.seed, len(rate), w.Unit, w.Op)
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		fmt.Fprintf(log, "  %-22s %14.4f %-5s (%s is better, bound %.0f%%)\n", d.Name, values[d.Name], d.Unit, d.Better, d.Bound*100)
	}
	// Informational only: tails and secondary operations are not
	// bounded (see README, "Why there is no end-to-end tail metric").
	if v, p := tail(lat); p > 0 {
		fmt.Fprintf(log, "  %-22s %14.4f ms    (p%.0f of %d ops)\n", "op_tail_ms", v, p, len(lat))
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(log, "  %-22s %14.4f       (median of %d)\n", k, median(extra[k]), len(extra[k]))
	}
	fmt.Fprintf(log, "  work_per_s by round: %.0f\n  op_p50_ms by round:  %.4f\n", cRate, cP50)
	fmt.Fprintf(log, "  as measured, before the correction: work_per_s %.4f  op_p50_ms %.4f  cpu_us_per_work %.4f\n", median(rate), median(p50), median(cpu))
	fmt.Fprintf(log, "  machine speed by round (reference kernel: %s nominal / measured): %.3f\n", refNominal, speeds)
	fmt.Fprintf(log, "  attempted %d  failed %d  correct true\n", attempted, failed)
	return res, nil
}

// runTraced sets the workload up once and collects the per-layer
// metrics; layers the workload does not exercise report 0.
func runTraced(w workloadDef, e *env, seconds float64, log io.Writer) (result, error) {
	inst, err := w.Setup(e)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			inst.Close()
		}
	}()
	m := layerMetrics{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := inst.Layers(time.Duration(seconds*float64(time.Second)), m); err != nil {
		return result{}, fmt.Errorf("layers: %w", err)
	}
	runtime.ReadMemStats(&after)
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	// HeapSys only grows, so at the end it is the largest heap the run needed.
	m["runtime.peak_heap_mb"] = float64(after.HeapSys) / 1e6
	if err := inst.Verify(); err != nil {
		return result{}, fmt.Errorf("correctness: %w", err)
	}
	closed = true
	if err := inst.Close(); err != nil {
		return result{}, fmt.Errorf("close: %w", err)
	}
	known := map[string]bool{}
	res := result{Correct: true, Attempted: int64(m["loadgen.ops_attempted"]), Metrics: map[string]metricValue{}}
	fmt.Fprintf(log, "workload %s  seed %d  traced run (layers this workload does not exercise read 0)\n", w.Name, e.seed)
	for _, d := range perLayer {
		known[d.Name] = true
		res.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
		if m[d.Name] != 0 {
			fmt.Fprintf(log, "  %-34s %16.4f %-6s (%s is better)\n", d.Name, m[d.Name], d.Unit, d.Better)
		}
	}
	for k := range m {
		if !known[k] {
			return result{}, fmt.Errorf("workload %s set undeclared per-layer metric %q", w.Name, k)
		}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("traced run attempted no operation")
	}
	return res, nil
}

// runOne is a single run as the driver invokes it; the result is the
// last line written to out.
func runOne(name string, seed uint64, seconds float64, traced bool, dir, traceDir string, out io.Writer) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	e := &env{name: name, seed: seed, dir: dir, out: traceDir, div: 1}
	run := runUntraced
	if traced {
		run = runTraced
	}
	res, err := run(w, e, seconds, out)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
