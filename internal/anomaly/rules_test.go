package anomaly

import (
	"testing"
	"time"
)

func TestDefaultRules(t *testing.T) {
	rules := DefaultRules()
	if len(rules) != 4 {
		t.Fatalf("got %d default rules, want 4", len(rules))
	}
	want := []string{DetectFlatline, DetectZombie, DetectOvershoot, DetectDrift}
	for i, d := range want {
		if rules[i].Detector != d {
			t.Errorf("rule %d detector = %q, want %q", i, rules[i].Detector, d)
		}
		if rules[i].Name == "" || SeverityLevel(rules[i].Severity) < 0 {
			t.Errorf("rule %d has bad name/severity: %+v", i, rules[i])
		}
		if rules[i].MinSamples < 1 || rules[i].MinDuration <= 0 || rules[i].ResolveAfter <= 0 {
			t.Errorf("rule %d has degenerate hysteresis: %+v", i, rules[i])
		}
	}
	if _, err := DefaultRule("nope"); err == nil {
		t.Error("unknown detector accepted")
	}
}

func TestParseRulesDefaults(t *testing.T) {
	for _, spec := range []string{"", "default", "  default  "} {
		rules, err := ParseRules(spec)
		if err != nil {
			t.Fatalf("ParseRules(%q): %v", spec, err)
		}
		if len(rules) != 4 {
			t.Fatalf("ParseRules(%q) gave %d rules, want 4", spec, len(rules))
		}
	}
}

func TestParseRulesOverrides(t *testing.T) {
	rules, err := ParseRules("flatline:rel-std=0.02,min-duration=20m;overshoot:overshoot-pct=30,severity=warning")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	if rules[0].RelStd != 0.02 || rules[0].MinDuration != 20*time.Minute {
		t.Errorf("flatline overrides not applied: %+v", rules[0])
	}
	if rules[0].HighFrac != 0.60 {
		t.Errorf("unset keys must keep defaults, high-frac = %v", rules[0].HighFrac)
	}
	if rules[1].OvershootPct != 30 || rules[1].Severity != SeverityWarning {
		t.Errorf("overshoot overrides not applied: %+v", rules[1])
	}
}

func TestParseRulesErrors(t *testing.T) {
	bad := []string{
		"wat",                       // unknown detector
		"flatline:nope=1",           // unknown key
		"flatline:rel-std",          // not key=value
		"flatline:rel-std=2",        // fraction out of range
		"flatline:rel-std=-0.1",     // negative fraction
		"zombie:rel-std=0.5",        // key does not apply to detector
		"overshoot:low-frac=0.5",    // key does not apply to detector
		"drift:overshoot-pct=10",    // key does not apply to detector
		"overshoot:min-w=5",         // overshoot reads no watts floor (and String would drop it)
		"flatline:severity=fatal",   // unknown severity
		"flatline:min-duration=xyz", // bad duration
		"flatline:min-duration=-5m", // negative duration
		"flatline:min-samples=0",    // zero samples
		"flatline:min-w=-1",         // negative watts
		"drift:runs=0",              // zero runs
		"flatline;flatline",         // duplicate names
		"flatline:name=",            // empty name
		"flatline:name=a b",         // reserved characters
		"overshoot:overshoot-pct=0", // zero percentage
		";;",                        // nothing left
	}
	for _, spec := range bad {
		if _, err := ParseRules(spec); err == nil {
			t.Errorf("ParseRules(%q) accepted a bad spec", spec)
		}
	}
}

func TestParseRulesSameDetectorTwice(t *testing.T) {
	rules, err := ParseRules("overshoot:name=soft,overshoot-pct=20,severity=info;overshoot:name=hard,overshoot-pct=50")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Name != "soft" || rules[1].Name != "hard" {
		t.Fatalf("two named overshoot rules not parsed: %+v", rules)
	}
}

// TestParseRulesRoundTrip pins the spec syntax: formatting any accepted
// rule set and re-parsing it yields the identical rules.
func TestParseRulesRoundTrip(t *testing.T) {
	specs := []string{
		"default",
		"flatline",
		"zombie:low-frac=0.25,min-w=120",
		"flatline:rel-std=0.005;zombie;overshoot:overshoot-pct=40;drift:runs=5,drift-frac=0.3",
		"overshoot:name=soft,overshoot-pct=20;overshoot:name=hard,overshoot-pct=50,severity=critical",
	}
	for _, spec := range specs {
		rules, err := ParseRules(spec)
		if err != nil {
			t.Fatalf("ParseRules(%q): %v", spec, err)
		}
		formatted := FormatRules(rules)
		again, err := ParseRules(formatted)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", formatted, spec, err)
		}
		if len(again) != len(rules) {
			t.Fatalf("round trip changed rule count: %q", formatted)
		}
		for i := range rules {
			if rules[i] != again[i] {
				t.Errorf("round trip of %q changed rule %d:\n got %+v\nwant %+v",
					spec, i, again[i], rules[i])
			}
		}
	}
}

func TestSeverityLevel(t *testing.T) {
	if SeverityLevel(SeverityInfo) != 0 || SeverityLevel(SeverityWarning) != 1 ||
		SeverityLevel(SeverityCritical) != 2 || SeverityLevel("junk") != -1 {
		t.Fatal("severity ranks are wrong")
	}
}
