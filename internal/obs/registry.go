// Package obs is the observability layer of the serving stack: a
// dependency-free metrics registry (counters, gauges read at scrape
// time, fixed-bucket latency histograms with Prometheus text
// exposition), structured
// leveled logging on log/slog with per-component loggers, batch tracing
// (trace IDs minted by the shipper and propagated through ingest, the
// WAL, and replication), and runtime introspection (pprof on a separate
// debug listener plus Go runtime gauges).
//
// The registry is built for hot paths: Counter.Add and
// Histogram.Observe are single atomic operations with no locks, so
// instrumenting the ingest path costs nanoseconds and never serializes
// concurrent requests. WritePrometheus reads the same atomics, so a
// scrape is safe (and lint-clean — see LintExposition) while every hot
// path keeps writing.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Metrics are emitted in registration order; one
// name can be registered only once (a duplicate panics — it is a wiring
// bug, the kind the exposition lint would otherwise catch in CI).
type Registry struct {
	mu         sync.Mutex
	metrics    []registered
	names      map[string]struct{}
	collectors []func(e *Exposition)
}

type registered struct {
	name string
	emit func(e *Exposition)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]struct{}{}}
}

func (r *Registry) register(name string, emit func(e *Exposition)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = struct{}{}
	r.metrics = append(r.metrics, registered{name: name, emit: emit})
}

// AddCollector registers a callback that emits dynamic series (state
// owned elsewhere, e.g. wal.Stats) at scrape time. Collectors run after
// the registered metrics, in registration order; they share the same
// Exposition, so family-name collisions with registered metrics are
// detected at write time.
func (r *Registry) AddCollector(fn func(e *Exposition)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// WritePrometheus renders every metric and collector to w in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := make([]registered, len(r.metrics))
	copy(metrics, r.metrics)
	collectors := make([]func(e *Exposition), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	e := NewExposition(w)
	for _, m := range metrics {
		m.emit(e)
	}
	for _, c := range collectors {
		c(e)
	}
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Counter registers and returns a counter (name should end _total per
// Prometheus convention; existing powserved names are grandfathered).
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(name, func(e *Exposition) { e.Counter(name, float64(c.v.Load())) })
	return c
}

// CounterHelp is Counter with a # HELP line ahead of the family.
func (r *Registry) CounterHelp(name, help string) *Counter {
	c := &Counter{}
	r.register(name, func(e *Exposition) {
		e.Help(name, help)
		e.Counter(name, float64(c.v.Load()))
	})
	return c
}

// Add increments the counter by n (n must be ≥ 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time — for state owned elsewhere (queue depth, goroutine count).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.register(name, func(e *Exposition) { e.Gauge(name, fn()) })
}

// CounterVec is a family of counters partitioned by one label.
type CounterVec struct {
	name, label string
	mu          sync.Mutex
	children    map[string]*Counter
}

// CounterVec registers and returns a one-label counter family.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	return r.CounterVecHelp(name, "", label)
}

// CounterVecHelp is CounterVec with a # HELP line ahead of the family.
func (r *Registry) CounterVecHelp(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, label: label, children: map[string]*Counter{}}
	r.register(name, func(e *Exposition) {
		if help != "" {
			e.Help(name, help)
		}
		for _, lv := range v.labelValues() {
			e.CounterL(name, v.label, lv, float64(v.With(lv).Value()))
		}
	})
	return v
}

// With returns (creating if needed) the child counter for label value lv.
func (v *CounterVec) With(lv string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.children[lv]
	if c == nil {
		c = &Counter{}
		v.children[lv] = c
	}
	return c
}

func (v *CounterVec) labelValues() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.children))
	for lv := range v.children {
		out = append(out, lv)
	}
	sort.Strings(out)
	return out
}

// Exposition writes Prometheus text-format series, emitting each
// family's # TYPE line exactly once (before its first series) and
// refusing conflicting re-declarations — the structural invariants
// LintExposition checks. Collectors use it so hand-emitted dynamic
// series stay as well-formed as registered ones.
type Exposition struct {
	w     io.Writer
	types map[string]string
}

// NewExposition returns an exposition writer over w.
func NewExposition(w io.Writer) *Exposition {
	return &Exposition{w: w, types: map[string]string{}}
}

func (e *Exposition) family(name, typ string) {
	if have, ok := e.types[name]; ok {
		if have != typ {
			// A type conflict inside one exposition is a wiring bug; emit
			// nothing extra (the lint test will flag the first declaration's
			// series if they are malformed) but do not re-declare.
			return
		}
		return
	}
	e.types[name] = typ
	fmt.Fprintf(e.w, "# TYPE %s %s\n", name, typ)
}

// Help emits the # HELP line of a family; call it before the family's
// first series. text must be a single line.
func (e *Exposition) Help(name, text string) {
	fmt.Fprintf(e.w, "# HELP %s %s\n", name, text)
}

// Counter emits an unlabeled counter series.
func (e *Exposition) Counter(name string, v float64) {
	e.family(name, "counter")
	fmt.Fprintf(e.w, "%s %s\n", name, formatValue(v))
}

// Gauge emits an unlabeled gauge series.
func (e *Exposition) Gauge(name string, v float64) {
	e.family(name, "gauge")
	fmt.Fprintf(e.w, "%s %s\n", name, formatValue(v))
}

// CounterL emits one labeled counter series.
func (e *Exposition) CounterL(name, label, labelValue string, v float64) {
	e.family(name, "counter")
	fmt.Fprintf(e.w, "%s{%s=%q} %s\n", name, label, labelValue, formatValue(v))
}

// GaugeL emits one labeled gauge series.
func (e *Exposition) GaugeL(name, label, labelValue string, v float64) {
	e.family(name, "gauge")
	fmt.Fprintf(e.w, "%s{%s=%q} %s\n", name, label, labelValue, formatValue(v))
}

// formatValue renders integers without an exponent and floats with %g —
// the format the pre-obs hand-rolled emitters used, so series values
// stay byte-compatible.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
