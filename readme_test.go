package hpcpower

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"hpcpower/internal/admit"
	"hpcpower/internal/anomaly"
)

// specArg finds a spec-string flag followed by a quoted argument,
// wherever README.md shows one: fenced command lines and inline code
// alike (inline code may wrap, hence (?s)). powserved's boolean -anomaly
// is never followed by a quote, so "anomaly" here is powload's.
var specArg = regexp.MustCompile(`(?s)-(admit|anomaly-rules|anomaly)\s+(?:"([^"]*)"|'([^']*)')`)

// TestREADMESpecExamplesParse runs every -admit, -anomaly-rules and
// powload -anomaly argument README.md shows through the parser the flag
// uses, and checks that the key tables the README prints are the parsers'
// own Usage(): documentation that names a key or a value the parser
// rejects fails here, not in an operator's shell.
func TestREADMESpecExamplesParse(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	parsers := map[string]func(string) error{
		"admit":         func(s string) error { _, err := admit.ParseConfig(s); return err },
		"anomaly-rules": func(s string) error { _, err := anomaly.ParseRules(s); return err },
		"anomaly":       func(s string) error { _, err := anomaly.ParseInjectSpec(s); return err },
	}
	seen := map[string]int{}
	for _, m := range specArg.FindAllStringSubmatch(readme, -1) {
		flag, arg := m[1], strings.Join(strings.Fields(m[2]+m[3]), "") // undo line wraps
		seen[flag]++
		if err := parsers[flag](arg); err != nil {
			t.Errorf("README.md shows -%s %q, which does not parse: %v", flag, arg, err)
		}
	}
	for flag := range parsers {
		if seen[flag] == 0 {
			t.Errorf("README.md shows no -%s example (or specArg no longer finds it)", flag)
		}
	}
	for flag, usage := range map[string]string{
		"admit":         new(admit.Config).Spec().Usage(),
		"anomaly-rules": new(anomaly.Rule).Spec().Usage(),
		"anomaly":       anomaly.InjectSpec(nil).Usage(),
	} {
		if !strings.Contains(readme, "```text\n"+usage+"\n```") {
			t.Errorf("README.md's -%s key table is not the parser's Usage(); it should read:\n%s", flag, usage)
		}
	}
}
