package anomaly

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"hpcpower/internal/spec"
)

// Detector names. Each detector reads a different face of the
// fingerprint; rule thresholds parameterize them.
const (
	DetectFlatline  = "flatline"  // variance collapse at sustained high power (cryptomining-like)
	DetectZombie    = "zombie"    // power floor after real activity (job lost its work)
	DetectOvershoot = "overshoot" // lifetime peak overshoot beyond the paper's envelope
	DetectDrift     = "drift"     // sustained same-direction baseline movement
)

// Severity levels, ordered. SeverityLevel maps them for filtering.
const (
	SeverityInfo     = "info"
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

var severities = []string{SeverityInfo, SeverityWarning, SeverityCritical}

// SeverityLevel returns the rank of a severity (info 0 < warning 1 <
// critical 2); unknown strings rank below info.
func SeverityLevel(s string) int { return slices.Index(severities, s) }

// Rule is one detector instance with its thresholds and hysteresis
// parameters. Durations are in sample time: a condition must hold for
// MinDuration of sample timestamps before the alert fires, and must
// stay clear for ResolveAfter before it resolves — so replaying the
// same WAL reproduces the same fire/resolve decisions.
type Rule struct {
	Detector string `json:"detector"`
	// Name identifies the rule in events, metrics labels, and exported
	// alert state. Defaults to the detector name; two rules of the same
	// detector need distinct names.
	Name     string `json:"name"`
	Severity string `json:"severity"`

	MinDuration  time.Duration `json:"min_duration"`
	ResolveAfter time.Duration `json:"resolve_after"`
	// MinSamples gates every detector until the fingerprint has seen
	// enough samples to mean anything (warmup).
	MinSamples int `json:"min_samples"`
	// MinW is an absolute watts floor: flatline requires the sustained
	// level above it, zombie requires the job's peak above it, drift
	// requires the run's starting baseline above it.
	MinW float64 `json:"min_w,omitempty"`

	// RelStd (flatline): fire when the windowed relative std falls
	// below this fraction while power is high.
	RelStd float64 `json:"rel_std,omitempty"`
	// HighFrac (flatline): "high power" means the fast EWMA is at least
	// this fraction of the job's sustained peak.
	HighFrac float64 `json:"high_frac,omitempty"`
	// LowFrac (zombie): "power floor" means the fast EWMA is at most
	// this fraction of the job's sustained peak.
	LowFrac float64 `json:"low_frac,omitempty"`
	// OvershootPct (overshoot): fire when lifetime (max−mean)/mean
	// exceeds this many percent.
	OvershootPct float64 `json:"overshoot_pct,omitempty"`
	// DriftFrac (drift): fire when a same-direction phase-shift run has
	// moved the baseline by at least this fraction.
	DriftFrac float64 `json:"drift_frac,omitempty"`
	// Runs (drift): minimum number of same-direction phase shifts in
	// the run (a genuine step change is one shift, never a drift).
	Runs int `json:"runs,omitempty"`
}

// defaultRules holds the tuned default rule of every detector, in
// evaluation order. The thresholds are set so the fault-free synthetic
// paper workload fires nothing (pinned by
// TestDefaultRulesZeroFalsePositives) while the injector's anomaly
// profiles are caught well inside the smoke's precision/recall bounds.
var defaultRules = []Rule{
	{Detector: DetectFlatline, Name: DetectFlatline, Severity: SeverityCritical,
		MinDuration: 15 * time.Minute, ResolveAfter: 10 * time.Minute,
		MinSamples: 15, MinW: 80, RelStd: 0.01, HighFrac: 0.60},
	{Detector: DetectZombie, Name: DetectZombie, Severity: SeverityWarning,
		MinDuration: 10 * time.Minute, ResolveAfter: 10 * time.Minute,
		MinSamples: 10, MinW: 80, LowFrac: 0.35},
	// The paper's healthy envelope is 10-12% mean overshoot, but
	// individual fault-free jobs reach the high 30s over a lifetime;
	// 50% is comfortably past anything the clean workload produces
	// while spiky runaways land well above it.
	{Detector: DetectOvershoot, Name: DetectOvershoot, Severity: SeverityCritical,
		MinDuration: 2 * time.Minute, ResolveAfter: 10 * time.Minute,
		MinSamples: 20, OvershootPct: 50},
	{Detector: DetectDrift, Name: DetectDrift, Severity: SeverityWarning,
		MinDuration: 10 * time.Minute, ResolveAfter: 20 * time.Minute,
		MinSamples: 15, MinW: 40, DriftFrac: 0.20, Runs: 3},
}

// DefaultRule returns the tuned default rule for a detector.
func DefaultRule(detector string) (Rule, error) {
	for _, r := range defaultRules {
		if r.Detector == detector {
			return r, nil
		}
	}
	return Rule{}, fmt.Errorf("anomaly: unknown detector %q", detector)
}

// DefaultRules returns the full default rule set, one rule per
// detector, in a fixed order.
func DefaultRules() []Rule { return slices.Clone(defaultRules) }

// Spec is the key=value half of the -anomaly-rules grammar bound to r:
// one row per key, in the order String renders. Every key that applies
// to r's detector is rendered, zero or not, so a formatted rule is
// self-describing.
func (r *Rule) Spec() spec.Set {
	const year = float64(365 * 24 * time.Hour)
	only := func(detectors ...string) (string, bool) {
		return strings.Join(detectors, "/"), slices.Contains(detectors, r.Detector)
	}
	return spec.Set{
		spec.String("name", &r.Name, "rule name in events, metric labels and alert state (default: the detector)").Always(),
		spec.Enum("severity", &r.Severity, "alert severity", severities...).Always(),
		spec.Duration("min-duration", &r.MinDuration, "sample time the condition must hold before the alert fires").Range(0, year).Always(),
		spec.Duration("resolve-after", &r.ResolveAfter, "sample time the condition must stay clear before it resolves").Range(0, year).Always(),
		spec.Int("min-samples", &r.MinSamples, "samples a job needs before the rule looks at it (warmup)").Range(1, 1<<30).Always(),
		spec.Float("min-w", &r.MinW, "absolute watts floor for the level / peak / starting baseline").Range(0, 1e9).Always().When(only(DetectFlatline, DetectZombie, DetectDrift)),
		spec.Float("rel-std", &r.RelStd, "fire when the windowed relative std falls below this").Above(0, 1).Always().When(only(DetectFlatline)),
		spec.Float("high-frac", &r.HighFrac, "high power = fast EWMA at least this fraction of the sustained peak").Above(0, 1).Always().When(only(DetectFlatline)),
		spec.Float("low-frac", &r.LowFrac, "power floor = fast EWMA at most this fraction of the sustained peak").Above(0, 1).Always().When(only(DetectZombie)),
		spec.Float("overshoot-pct", &r.OvershootPct, "fire when lifetime (max-mean)/mean exceeds this many percent").Above(0, 1e6).Always().When(only(DetectOvershoot)),
		spec.Float("drift-frac", &r.DriftFrac, "fire when a same-direction run moved the baseline by this fraction").Above(0, 100).Always().When(only(DetectDrift)),
		spec.Int("runs", &r.Runs, "same-direction phase shifts a run needs (one shift is a step, not a drift)").Range(1, 1<<20).Always().When(only(DetectDrift)),
	}
}

// ParseRules parses a rule-set spec: semicolon-separated rules, each
// "detector" or "detector:key=value,key=value", e.g.
//
//	flatline:rel-std=0.02,min-duration=20m;overshoot:overshoot-pct=30
//
// Keys override the detector's defaults; unknown detectors, unknown
// keys, keys that do not apply to the detector and out-of-range values
// are errors. "default" (or "") yields DefaultRules. Every accepted
// spec round-trips through FormatRules.
func ParseRules(s string) ([]Rule, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "default" {
		return DefaultRules(), nil
	}
	var rules []Rule
	names := map[string]struct{}{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		det, args, _ := strings.Cut(part, ":")
		det = strings.TrimSpace(det)
		r, err := DefaultRule(det)
		if err != nil {
			return nil, err
		}
		if err := r.Spec().Parse(args); err != nil {
			return nil, fmt.Errorf("anomaly: rule %q: %w", det, err)
		}
		// The name is part of the grammar, so it cannot hold its separators.
		if r.Name == "" || strings.ContainsAny(r.Name, ";:,= \t\n\"") {
			return nil, fmt.Errorf("anomaly: rule %q: name %q is empty or contains reserved characters", det, r.Name)
		}
		if _, dup := names[r.Name]; dup {
			return nil, fmt.Errorf("anomaly: duplicate rule name %q (use name= to distinguish)", r.Name)
		}
		names[r.Name] = struct{}{}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("anomaly: empty rule spec")
	}
	return rules, nil
}

// String renders the rule in spec syntax, emitting every applicable
// key so the output is self-describing and parses back to the same
// rule (round-trip pinned by TestParseRulesRoundTrip and the fuzzer).
func (r Rule) String() string { return r.Detector + ":" + r.Spec().String() }

// FormatRules renders a rule set in spec syntax (see ParseRules).
func FormatRules(rules []Rule) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}
