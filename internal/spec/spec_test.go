package spec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// allKinds has one field of every kind, plus every modifier.
type allKinds struct {
	D     time.Duration
	I     int
	I64   int64
	F     float64
	B     int64
	E     string
	S     string
	Gated int
	Mode  string // what Gated's When reads; not a key
}

func (a *allKinds) spec() Set {
	return Set{
		Duration("d", &a.D, "a duration").Range(0, float64(365*24*time.Hour)),
		Int("i", &a.I, "an int").Min(-3).Always(),
		Int("i64", &a.I64, "an int64"),
		Float("f", &a.F, "a float").Above(0, 10),
		Bytes("b", &a.B, "a byte count"),
		Enum("e", &a.E, "an enum", "x", "y"),
		String("s", &a.S, "a string"),
		Int("gated", &a.Gated, "an int that needs mode=on").When("mode on", a.Mode == "on"),
	}
}

func TestPairs(t *testing.T) {
	var got []string
	err := Pairs(" a=1 ,, b = 2 ,c=,d=x=y,", func(k, v string) error {
		got = append(got, k+"→"+v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "a→1 b→2 c→ d→x=y"; strings.Join(got, " ") != want {
		t.Fatalf("Pairs = %q, want %q", got, want)
	}
	if err := Pairs("a=1,b", func(string, string) error { return nil }); err == nil || !strings.Contains(err.Error(), `"b": missing '='`) {
		t.Fatalf("missing '=' error = %v", err)
	}
	stop := fmt.Errorf("stop")
	if err := Pairs("a=1,b=2", func(k, _ string) error { return stop }); err != stop {
		t.Fatalf("callback error not returned: %v", err)
	}
}

func TestParseEveryKind(t *testing.T) {
	var a allKinds
	a.Mode = "on"
	spec := "d=1h30m,i=-3,i64=-9223372036854775808,f=2.5,b=1.5KiB,e=y,s=wal-,gated=7"
	if err := a.spec().Parse(spec); err != nil {
		t.Fatal(err)
	}
	want := allKinds{D: 90 * time.Minute, I: -3, I64: math.MinInt64, F: 2.5, B: 1536,
		E: "y", S: "wal-", Gated: 7, Mode: "on"}
	if a != want {
		t.Fatalf("Parse = %+v, want %+v", a, want)
	}
	if got, want := a.spec().String(), "d=1h30m0s,i=-3,i64=-9223372036854775808,f=2.5,b=1536,e=y,s=wal-,gated=7"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	// Zero fields are left out unless Always; a repeated key overwrites.
	var z allKinds
	if err := z.spec().Parse("i=1,i=0,b=0"); err != nil {
		t.Fatal(err)
	}
	if got := z.spec().String(); got != "i=0" {
		t.Fatalf("zero String = %q, want %q", got, "i=0")
	}
}

func TestParseErrors(t *testing.T) {
	for spec, want := range map[string]string{
		"nope=1":        `unknown key "nope" (keys: d, i, i64, f, b, e, s, gated)`,
		"d":             `"d": missing '='`,
		"d=xyz":         `d="xyz": want duration in [0s, 8760h0m0s]`,
		"d=-1ns":        `d="-1ns": want duration in [0s, 8760h0m0s]`,
		"d=8760h0m1ns":  `want duration`,
		"i=-4":          `i="-4": want int >= -3`,
		"i=1.5":         `want int`,
		"i64=1e3":       `i64="1e3": want int`,
		"f=0":           `f="0": want float in (0, 10]`,
		"f=NaN":         `want float`,
		"f=+Inf":        `want float`,
		"f=11":          `want float`,
		"b=-1":          `b="-1": want bytes >= 0`,
		"b=NaNMiB":      `want bytes`,
		"b=1e300G":      `want bytes`,
		"e=z":           `e="z": want x|y`,
		"gated=1":       `gated only applies to mode on`,
		"i=1,gated=bad": `gated only applies to mode on`,
	} {
		var a allKinds
		err := a.spec().Parse(spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) error = %v, want it to contain %q", spec, err, want)
		}
	}
	// A key that does not apply is not rendered either.
	a := allKinds{Gated: 5}
	if got := a.spec().String(); got != "i=0" {
		t.Fatalf("String with gated off = %q", got)
	}
}

func TestUsage(t *testing.T) {
	got := new(allKinds).spec().Usage()
	lines := strings.Split(got, "\n")
	if len(lines) != 8 {
		t.Fatalf("Usage has %d lines, want 8:\n%s", len(lines), got)
	}
	for _, want := range []string{
		"  d              duration in [0s, 8760h0m0s] a duration",
		"  i64            int                        an int64",
		"  e              x|y                        an enum",
		"  gated          int                        an int that needs mode=on (mode on only)",
	} {
		if !strings.Contains(got+"\n", want+"\n") {
			t.Errorf("Usage lacks line %q:\n%s", want, got)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0":     0,
		"1024":  1024,
		"4K":    4096,
		"4KiB":  4096,
		"4kb":   4096,
		"2M":    2 << 20,
		"2MiB":  2 << 20,
		"1G":    1 << 30,
		"1.5K":  1536,
		" 8 K ": 8192,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseBytes(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "k", "kib", "4ib", "4b", "4kbb", "4gk", "-1", "NaN", "infk", "1e300G", "9223372036854775808"} {
		if n, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want an error", bad, n)
		}
	}
}

// refParseBytes is the suffix-table parser ParseBytes replaced, kept as
// the reference FuzzParseBytes compares against.
func refParseBytes(v string) (int64, bool) {
	s := strings.TrimSpace(v)
	lower := strings.ToLower(s)
	shift := 0
	for _, bs := range []struct {
		suf   string
		shift int
	}{{"kib", 10}, {"mib", 20}, {"gib", 30}, {"kb", 10}, {"mb", 20}, {"gb", 30}, {"k", 10}, {"m", 20}, {"g", 30}} {
		if strings.HasSuffix(lower, bs.suf) && len(lower) > len(bs.suf) {
			s = strings.TrimSpace(s[:len(s)-len(bs.suf)])
			shift = bs.shift
			break
		}
	}
	n, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(n) || math.IsInf(n, 0) || n < 0 {
		return 0, false
	}
	out := n * float64(int64(1)<<shift)
	if out >= math.MaxInt64 {
		return 0, false
	}
	return int64(out), true
}

func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{"0", "4K", "4KiB", "4kb", " 8 K ", "1.5m", "kib", "4ib", "1e300G", "NaNMiB", "-5", "0x10k", "1_0k", "İb"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseBytes(s)
		want, ok := refParseBytes(s)
		if (err == nil) != ok || got != want {
			t.Fatalf("ParseBytes(%q) = %d, %v; reference says %d, %v", s, got, err, want, ok)
		}
	})
}

// FuzzPairs: the tokenizer and a table of every field kind never panic,
// and for every accepted spec String is the inverse of Parse — it
// parses back to the same values and renders the same bytes.
func FuzzPairs(f *testing.F) {
	for _, s := range []string{
		"",
		"d=1h30m,i=-3,i64=7,f=2.5,b=1.5KiB,e=y,s=wal-",
		" d=1s , i=2 ,",
		",,,=,==",
		"f=NaN,f=+Inf",
		"e=yes",
		"s=a=b,e=x",
		"gated=3",
		"d=8760h,b=1e300G",
		"i64=-9223372036854775808,f=1e-320",
	} {
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, s string, gate bool) {
		if err := Pairs(s, func(string, string) error { return nil }); err != nil && !strings.Contains(err.Error(), "missing '='") {
			t.Fatalf("Pairs(%q) with an accepting callback failed: %v", s, err)
		}
		var a allKinds
		if gate {
			a.Mode = "on"
		}
		if err := a.spec().Parse(s); err != nil {
			return
		}
		if a.D < 0 || a.I < -3 || !(a.F > 0 && a.F <= 10 || a.F == 0) || a.B < 0 || (a.E != "" && a.E != "x" && a.E != "y") {
			t.Fatalf("Parse(%q) accepted out-of-range values: %+v", s, a)
		}
		out := a.spec().String()
		back := allKinds{Mode: a.Mode}
		if err := back.spec().Parse(out); err != nil {
			t.Fatalf("Parse(%q) -> %+v -> %q does not parse back: %v", s, a, out, err)
		}
		if back != a {
			t.Fatalf("round trip drift: %q -> %+v -> %q -> %+v", s, a, out, back)
		}
		if again := back.spec().String(); again != out {
			t.Fatalf("String is not stable: %q then %q", out, again)
		}
	})
}
