// Package spec owns the "key=value,key=value" grammar behind powserved's
// -admit and -anomaly-rules flags and powload's -anomaly.
// A Set is an ordered table of typed fields, each bound to the variable
// it configures; Parse, its inverse String, the wording of every error
// and the key list shown by -help (Usage) all derive from that one
// table, so none of them can disagree with the parser.
package spec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Pairs splits a comma-separated key=value list and calls fn once per
// pair, in order. Blank items are skipped and keys and values are
// trimmed, so " a=1 ,, b=2," is two pairs; an item without '=' is an
// error.
func Pairs(s string, fn func(key, val string) error) error {
	for _, kv := range strings.Split(s, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("%q: missing '='", kv)
		}
		if err := fn(strings.TrimSpace(k), strings.TrimSpace(v)); err != nil {
			return err
		}
	}
	return nil
}

// Field binds one key to one variable. Build it with a kind constructor
// (Duration, Int, Float, Bytes, Enum, String) and narrow it
// with Min / Range / Above, Always and When.
type Field struct {
	key, doc string
	kind     string  // names the type in Usage; one holding '|' lists every accepted value
	ptr      any     // *time.Duration, *int, *int64, *float64 or *string; read and written by reflection
	lo, hi   float64 // accepted numeric range, inclusive (lo exclusive when open)
	open     bool
	always   bool   // String renders the zero value too
	only     string // When: what the key applies to, for errors and Usage
	off      bool   // When: the key does not apply to this value
}

func field(key, kind, doc string, ptr any) Field {
	return Field{key: key, kind: kind, doc: doc, ptr: ptr, lo: math.Inf(-1), hi: math.Inf(1)}
}

// Duration is a time.ParseDuration value such as "250ms" or "1h30m".
func Duration(key string, p *time.Duration, doc string) Field { return field(key, "duration", doc, p) }

// Int is a decimal integer.
func Int[N int | int64](key string, p *N, doc string) Field { return field(key, "int", doc, p) }

// Float is a finite decimal number.
func Float(key string, p *float64, doc string) Field { return field(key, "float", doc, p) }

// Bytes is a non-negative byte count with an optional 1024-based suffix
// ("4096", "4K", "256MiB"); String renders it as plain decimal.
func Bytes(key string, p *int64, doc string) Field { return field(key, "bytes", doc, p).Min(0) }

// Enum is one of values.
func Enum(key string, p *string, doc string, values ...string) Field {
	return field(key, strings.Join(values, "|"), doc, p)
}

// String is any text (the grammar keeps ',' out of it).
func String(key string, p *string, doc string) Field { return field(key, "string", doc, p) }

// Min restricts a numeric field to [lo, +inf).
func (f Field) Min(lo float64) Field { f.lo = lo; return f }

// Range restricts a numeric field to [lo, hi].
func (f Field) Range(lo, hi float64) Field { f.lo, f.hi = lo, hi; return f }

// Above restricts a numeric field to (lo, hi].
func (f Field) Above(lo, hi float64) Field { f.lo, f.hi, f.open = lo, hi, true; return f }

// Always makes String render the field even at its zero value.
func (f Field) Always() Field { f.always = true; return f }

// When says the key applies only to some values (named by only, for the
// error and Usage) and whether this is one: where it is not, Parse
// rejects the key and String skips it.
func (f Field) When(only string, applies bool) Field { f.only, f.off = only, !applies; return f }

// inRange is exact for integers: the bounds are compared as int64, not
// through a float64 that cannot hold every duration.
func (f *Field) inRange(n int64) bool {
	return !(f.lo > math.MinInt64 && n < int64(f.lo)) && !(f.hi < math.MaxInt64 && n > int64(f.hi))
}

// set parses val into the bound variable; false means val is not a
// value of the field's kind or lies outside its range.
func (f *Field) set(val string) bool {
	if strings.Contains(f.kind, "|") && !slices.Contains(strings.Split(f.kind, "|"), val) {
		return false
	}
	v := reflect.ValueOf(f.ptr).Elem()
	switch v.Kind() {
	case reflect.Int, reflect.Int64: // a time.Duration is an int64 too
		n, err := strconv.ParseInt(val, 10, v.Type().Bits())
		if f.kind == "bytes" {
			n, err = ParseBytes(val)
		} else if f.kind == "duration" {
			var d time.Duration
			d, err = time.ParseDuration(val)
			n = int64(d)
		}
		if err != nil || !f.inRange(n) {
			return false
		}
		v.SetInt(n)
	case reflect.Float64:
		x, err := strconv.ParseFloat(val, 64)
		// The comparisons are written so that NaN fails them.
		if err != nil || math.IsInf(x, 0) || !(x >= f.lo && x <= f.hi) || (f.open && x == f.lo) {
			return false
		}
		v.SetFloat(x)
	case reflect.String:
		v.SetString(val)
	}
	return true
}

// get renders the bound variable the way set reads it back, and
// reports whether it holds its zero value.
func (f *Field) get() (string, bool) {
	v := reflect.ValueOf(f.ptr).Elem()
	return fmt.Sprint(v), v.IsZero() // Sprint: Duration.String, shortest float, decimal int
}

// want describes the values the field accepts: "duration >= 0s",
// "float in (0, 1]", "info|warning|critical".
func (f *Field) want() string {
	bound := func(x float64) string {
		if f.kind == "duration" {
			return time.Duration(x).String()
		}
		return strconv.FormatFloat(x, 'f', -1, 64)
	}
	switch {
	case math.IsInf(f.lo, -1) && math.IsInf(f.hi, 1):
		return f.kind
	case math.IsInf(f.hi, 1):
		return f.kind + " >= " + bound(f.lo)
	case f.open:
		return f.kind + " in (" + bound(f.lo) + ", " + bound(f.hi) + "]"
	}
	return f.kind + " in [" + bound(f.lo) + ", " + bound(f.hi) + "]"
}

// Set is an ordered table of fields: the order String renders and
// Usage lists.
type Set []Field

// Apply sets the variable bound to key from val.
func (s Set) Apply(key, val string) error {
	var keys []string
	for i := range s {
		f := &s[i]
		keys = append(keys, f.key)
		if f.key != key {
			continue
		}
		if f.off {
			return fmt.Errorf("%s only applies to %s", key, f.only)
		}
		if !f.set(val) {
			return fmt.Errorf("%s=%q: want %s", key, val, f.want())
		}
		return nil
	}
	return fmt.Errorf("unknown key %q (keys: %s)", key, strings.Join(keys, ", "))
}

// Parse applies every pair of spec in order; a repeated key overwrites.
// On error the variables hold the pairs before the bad one.
func (s Set) Parse(spec string) error { return Pairs(spec, s.Apply) }

// String renders the bound variables in table order, leaving out zero
// values not marked Always and keys whose When does not apply. It is
// the inverse of Parse.
func (s Set) String() string {
	var parts []string
	for i := range s {
		if v, zero := s[i].get(); !s[i].off && (s[i].always || !zero) {
			parts = append(parts, s[i].key+"="+v)
		}
	}
	return strings.Join(parts, ",")
}

// Usage lists every key with the values it accepts and its one-line
// doc, one per line, for -help texts and the README tables.
func (s Set) Usage() string {
	lines := make([]string, len(s))
	for i := range s {
		lines[i] = fmt.Sprintf("  %-14s %-26s %s", s[i].key, s[i].want(), s[i].doc)
		if s[i].only != "" {
			lines[i] += " (" + s[i].only + " only)"
		}
	}
	return strings.Join(lines, "\n")
}

// ParseBytes parses a byte count with an optional suffix K, M or G,
// itself optionally followed by B or iB, in either case: "1048576",
// "4K", "4kb", "256MiB". Every spelling is 1024-based (K == KB == KiB).
func ParseBytes(v string) (int64, error) {
	s := strings.ToLower(strings.TrimSpace(v))
	shift := 0
	for _, tail := range []string{"ib", "b", ""} { // longest first: "MiB" is not a number ending in "Mi" plus "B"
		if t := strings.TrimSuffix(s, tail); len(t) > 1 && strings.IndexByte("kmg", t[len(t)-1]) >= 0 {
			s, shift = strings.TrimSpace(t[:len(t)-1]), 10*(strings.IndexByte("kmg", t[len(t)-1])+1)
			break
		}
	}
	n, err := strconv.ParseFloat(s, 64)
	n *= float64(int64(1) << shift)
	if err != nil || !(n >= 0 && n < math.MaxInt64) { // written so that NaN fails
		return 0, fmt.Errorf("bad byte count %q: want a non-negative number below 8Ei with an optional K/M/G[i][B] suffix", v)
	}
	return int64(n), nil
}
