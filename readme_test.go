package hpcpower

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hpcpower/internal/admit"
	"hpcpower/internal/anomaly"
)

// specArg finds a spec-string flag followed by a quoted argument,
// wherever README.md shows one: fenced command lines and inline code
// alike (inline code may wrap, hence (?s)).
var specArg = regexp.MustCompile(`(?s)-(admit|anomaly-rules)\s+(?:"([^"]*)"|'([^']*)')`)

// TestREADMESpecExamplesParse runs every -admit and -anomaly-rules
// argument README.md shows through the parser the flag uses, and checks
// that the key tables the README prints are the parsers' own Usage():
// documentation that names a key or a value the parser rejects fails
// here, not in an operator's shell.
func TestREADMESpecExamplesParse(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	parsers := map[string]func(string) error{
		"admit":         func(s string) error { _, err := admit.ParseConfig(s); return err },
		"anomaly-rules": func(s string) error { _, err := anomaly.ParseRules(s); return err },
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
	} {
		if !strings.Contains(readme, "```text\n"+usage+"\n```") {
			t.Errorf("README.md's -%s key table is not the parser's Usage(); it should read:\n%s", flag, usage)
		}
	}
}

// flagRow is one row of README.md's powserved flag table, and
// flagCount the sentence that counts them.
var (
	flagRow   = regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\| (\\w+) \\| (?:`([^`]*)`)? \\|")
	flagCount = regexp.MustCompile(`The (\d+) flags:`)
)

// helpFlags runs powserved -help and returns each flag's type and
// default as flag.PrintDefaults prints them: "bool" for a flag with no
// type word, and the default unquoted, "" when it is the zero value.
func helpFlags(t *testing.T) map[string][2]string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build powserved with")
	}
	out, err := exec.Command(goBin, "run", "./cmd/powserved", "-help").CombinedOutput()
	if err != nil {
		t.Fatalf("powserved -help: %v\n%s", err, out)
	}
	header := regexp.MustCompile(`^  -(\S+)(?: (\S+))?$`)
	dflt := regexp.MustCompile(`\(default (.+)\)$`)
	flags := map[string][2]string{}
	name := ""
	for _, line := range strings.Split(string(out), "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			name = m[1]
			typ := m[2]
			if typ == "" {
				typ = "bool"
			}
			flags[name] = [2]string{typ, ""}
			continue
		}
		if m := dflt.FindStringSubmatch(line); m != nil && name != "" {
			v := m[1]
			if u, err := strconv.Unquote(v); err == nil {
				v = u
			}
			flags[name] = [2]string{flags[name][0], v}
		}
	}
	if len(flags) == 0 {
		t.Fatalf("found no flag in powserved -help:\n%s", out)
	}
	return flags
}

// TestREADMEFlagTable checks README.md's powserved flag table against
// the daemon's own flag set: the same names, each with the type and the
// default -help prints, and the count above the table right.
func TestREADMEFlagTable(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	want := helpFlags(t)
	rows := flagRow.FindAllStringSubmatch(string(raw), -1)
	got := map[string][2]string{}
	for _, m := range rows {
		got[m[1]] = [2]string{m[2], m[3]}
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("README.md's flag table lacks -%s (%s, default %q)", name, w[0], w[1])
		case g != w:
			t.Errorf("README.md says -%s is %s with default %q; powserved -help says %s with default %q", name, g[0], g[1], w[0], w[1])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("README.md's flag table lists -%s, which powserved does not have", name)
		}
	}
	if m := flagCount.FindStringSubmatch(string(raw)); m == nil || m[1] != strconv.Itoa(len(want)) {
		t.Errorf("README.md counts %v flags; powserved has %d", m, len(want))
	}
}
