package trace

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file is the reflection-free codec for the one JSON shape that
// travels the ingest path — the POST /v1/samples body and the WAL /
// replication record:
//
//	{"agent":"a1","seq":7,"redelivery":true,
//	 "samples":[{"node":17,"job":42,"t":1700000000,"w":151.2}],
//	 "plsn":9,"trace":"4f2a"}
//
// The scanner is strict on purpose. It accepts only the canonical
// grammar below and reports "not mine" (ok == false) for everything
// else, and the caller then runs encoding/json on the same bytes. So a
// body the scanner accepts decodes to exactly the value encoding/json
// would produce, and a body it does not accept is answered exactly as
// before — the scanner never has to reproduce an error text or one of
// encoding/json's leniencies.
//
// Accepted grammar: one JSON object, then nothing but whitespace. Keys
// are the exact lower-case names above (ScanBatch: agent, seq,
// redelivery, samples; ScanWALRecord: agent, seq, samples, plsn, trace),
// in any order, each at most once; a sample's keys are node, job, t, w
// under the same rule, and absent keys leave the zero value. Strings
// hold printable ASCII without escapes. seq, plsn and job are plain
// non-negative integers, node and t plain integers, all in range for
// their Go type; w is any JSON number in float64's range, converted to
// the bits strconv.ParseFloat (encoding/json's own conversion) returns;
// redelivery is true and plsn is not 0. Not accepted, hence left to
// encoding/json: null anywhere, unknown, duplicate or differently-cased
// keys, string escapes and non-ASCII, fractions or exponents on integer
// fields, out-of-range numbers, anything after the object, and a
// spelled-out "redelivery":false or "plsn":0 — what the key's absence
// means, and what no encoder here writes. So an accepted batch without
// Redelivery, or record with PLSN 0, holds no such key, and
// SpliceWALFields can make it a WAL record as it stands.
//
// Inside that grammar the scanner and the encoder take exact shortcuts
// for what the fleet sends: a sample in the encoder's own layout, a
// reading with a few decimals, and — writing — a reading on the 0.1 W
// grid. Each shortcut gives the general path's answer for the same
// bytes, and anything it does not cover takes the general path.

// WALRecord is the payload of one WAL data record: the delivery-stamped
// batch, so replay can rebuild both the store and the dedup index. The
// replication stream carries the same bytes verbatim.
type WALRecord struct {
	Agent   string        `json:"agent,omitempty"`
	Seq     uint64        `json:"seq,omitempty"`
	Samples []PowerSample `json:"samples"`
	// PLSN is the primary's LSN for a record a follower applied off the
	// replication stream (0 on records ingested directly). Recovery
	// takes the max to find where the pull loop resumes.
	PLSN uint64 `json:"plsn,omitempty"`
	// Trace is the shipper-minted trace ID; it rides the WAL body (and
	// therefore the replication stream) so follower apply logs carry the
	// same ID as the primary's ingest.
	Trace string `json:"trace,omitempty"`
}

// ScanBatch decodes a POST /v1/samples body in one pass, appending the
// samples to dst[:0]. ok is false when the body is not in the canonical
// form; b is then meaningless and the caller decodes with encoding/json.
// The returned batch does not alias body.
func ScanBatch(body []byte, dst []PowerSample) (b SampleBatch, ok bool) {
	f, ok := scanRecord(body, dst, keyAgent|keySeq|keyRedelivery|keySamples)
	return SampleBatch{AgentID: f.agent, Seq: f.seq, Redelivery: f.redelivery, Samples: f.samples}, ok
}

// ScanWALRecord is ScanBatch for a WAL / replication record body.
func ScanWALRecord(body []byte, dst []PowerSample) (r WALRecord, ok bool) {
	f, ok := scanRecord(body, dst, keyAgent|keySeq|keySamples|keyPLSN|keyTrace)
	return WALRecord{Agent: f.agent, Seq: f.seq, Samples: f.samples, PLSN: f.plsn, Trace: f.trace}, ok
}

// AppendBatch appends the JSON encoding of b to dst, byte for byte what
// json.Marshal(b) returns. Like json.Marshal it refuses NaN and ±Inf.
func AppendBatch(dst []byte, b *SampleBatch) ([]byte, error) {
	return appendRecord(dst, &fields{agent: b.AgentID, seq: b.Seq, redelivery: b.Redelivery, samples: b.Samples})
}

// AppendWALRecord appends the JSON encoding of r to dst, byte for byte
// what json.Marshal(r) returns.
func AppendWALRecord(dst []byte, r *WALRecord) ([]byte, error) {
	return appendRecord(dst, &fields{agent: r.Agent, seq: r.Seq, samples: r.Samples, plsn: r.PLSN, trace: r.Trace})
}

// SpliceWALFields makes body, a batch ScanBatch accepted without
// Redelivery or a record ScanWALRecord accepted with PLSN 0, the WAL
// record of its own fields plus plsn (none when 0) and traceID (none
// when ""): its trailing whitespace goes, and the two keys go in before
// its closing brace, appended in body's own array. ScanWALRecord and
// encoding/json read the result as they read AppendWALRecord's bytes for
// the same fields. body must not carry the trace key already when
// traceID is set; the scanner's grammar keeps the others out.
func SpliceWALFields(body []byte, plsn uint64, traceID string) []byte {
	rec := body[:skipSpaceBack(body, len(body)-1)] // up to the closing brace
	sep := ","
	if rec[skipSpaceBack(rec, len(rec)-1)] == '{' {
		sep = "" // an empty object
	}
	if plsn != 0 {
		rec = strconv.AppendUint(append(append(rec, sep...), `"plsn":`...), plsn, 10)
		sep = ","
	}
	if traceID != "" {
		rec = appendString(append(append(rec, sep...), `"trace":`...), traceID)
	}
	return append(rec, '}')
}

// fields is the union of SampleBatch and WALRecord, in wire order.
type fields struct {
	agent      string
	seq        uint64
	redelivery bool
	samples    []PowerSample
	plsn       uint64
	trace      string
}

const (
	keyAgent = 1 << iota
	keySeq
	keyRedelivery
	keySamples
	keyPLSN
	keyTrace
)

const (
	keyNode = 1 << iota
	keyJob
	keyT
	keyW
)

// scanRecord scans one object whose keys are limited to allowed. Every
// helper below takes the position to read at and returns the position
// after what it consumed, or -1 when the input leaves the grammar.
func scanRecord(b []byte, dst []PowerSample, allowed uint) (f fields, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return f, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		i++
	} else {
		var seen uint
		for {
			ks, ke, next := scanString(b, i)
			if next < 0 {
				return f, false
			}
			var key uint
			switch string(b[ks:ke]) {
			case "agent":
				key = keyAgent
			case "seq":
				key = keySeq
			case "redelivery":
				key = keyRedelivery
			case "samples":
				key = keySamples
			case "plsn":
				key = keyPLSN
			case "trace":
				key = keyTrace
			}
			if key&allowed == 0 || key&seen != 0 {
				return f, false
			}
			seen |= key
			if i = skipColon(b, next); i < 0 {
				return f, false
			}
			switch key {
			case keyAgent, keyTrace:
				vs, ve, next := scanString(b, i)
				if next < 0 {
					return f, false
				}
				if key == keyAgent {
					f.agent = string(b[vs:ve])
				} else {
					f.trace = string(b[vs:ve])
				}
				i = next
			case keySeq:
				f.seq, i = scanUint(b, i)
			case keyPLSN:
				if f.plsn, i = scanUint(b, i); f.plsn == 0 {
					return f, false
				}
			case keyRedelivery:
				if f.redelivery, i = scanBool(b, i); !f.redelivery {
					return f, false
				}
			case keySamples:
				f.samples, i = scanSamples(b, i, dst)
			}
			if i < 0 {
				return f, false
			}
			i = skipSpace(b, i)
			if i >= len(b) {
				return f, false
			}
			if b[i] == '}' {
				i++
				break
			}
			if b[i] != ',' {
				return f, false
			}
			i = skipSpace(b, i+1)
		}
	}
	return f, skipSpace(b, i) == len(b)
}

// scanSamples scans the samples array into dst[:0]. An empty array
// yields an empty non-nil slice, as encoding/json does.
func scanSamples(b []byte, i int, dst []PowerSample) ([]PowerSample, int) {
	if i >= len(b) || b[i] != '[' {
		return nil, -1
	}
	out := dst[:0]
	if out == nil {
		out = []PowerSample{}
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return out, i + 1
	}
	for {
		var s PowerSample
		if i = scanSample(b, i, &s); i < 0 {
			return nil, -1
		}
		out = append(out, s)
		i = skipSpace(b, i)
		if i >= len(b) {
			return nil, -1
		}
		if b[i] == ']' {
			return out, i + 1
		}
		if b[i] != ',' {
			return nil, -1
		}
		i = skipSpace(b, i+1)
	}
}

// scanSample scans one sample. The layout appendRecord writes is read
// by scanSampleLiteral; any other spelling of a sample restarts at its
// '{' on the general key loop below.
func scanSample(b []byte, i int, s *PowerSample) int {
	if next := scanSampleLiteral(b, i, s); next >= 0 {
		return next
	}
	if i >= len(b) || b[i] != '{' {
		return -1
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	var seen uint
	for {
		ks, ke, next := scanString(b, i)
		if next < 0 {
			return -1
		}
		var key uint
		switch string(b[ks:ke]) {
		case "node":
			key = keyNode
		case "job":
			key = keyJob
		case "t":
			key = keyT
		case "w":
			key = keyW
		}
		if key == 0 || key&seen != 0 {
			return -1
		}
		seen |= key
		if i = skipColon(b, next); i < 0 {
			return -1
		}
		switch key {
		case keyNode:
			var v int64
			if v, i = scanInt(b, i); int64(int(v)) != v {
				return -1 // out of range where int is 32 bits
			}
			s.Node = int(v)
		case keyJob:
			s.JobID, i = scanUint(b, i)
		case keyT:
			s.Unix, i = scanInt(b, i)
		case keyW:
			s.PowerW, i = scanFloat(b, i)
		}
		if i < 0 {
			return -1
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return -1
		}
		if b[i] == '}' {
			return i + 1
		}
		if b[i] != ',' {
			return -1
		}
		i = skipSpace(b, i+1)
	}
}

// scanSampleLiteral reads {"node":N,"job":J,"t":T,"w":W} with no
// whitespace, through the same value scanners as the key loop. It
// writes s only on success, so a mismatch leaves s for the key loop.
func scanSampleLiteral(b []byte, i int, s *PowerSample) int {
	if !hasLiteral(b, i, `{"node":`) {
		return -1
	}
	node, i := scanInt(b, i+len(`{"node":`))
	if i < 0 || int64(int(node)) != node || !hasLiteral(b, i, `,"job":`) {
		return -1
	}
	job, i := scanUint(b, i+len(`,"job":`))
	if i < 0 || !hasLiteral(b, i, `,"t":`) {
		return -1
	}
	unix, i := scanInt(b, i+len(`,"t":`))
	if i < 0 || !hasLiteral(b, i, `,"w":`) {
		return -1
	}
	w, i := scanFloat(b, i+len(`,"w":`))
	if i < 0 || i >= len(b) || b[i] != '}' {
		return -1
	}
	*s = PowerSample{Node: int(node), JobID: job, Unix: unix, PowerW: w}
	return i + 1
}

func hasLiteral(b []byte, i int, lit string) bool {
	return len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// skipSpaceBack is the position of the last byte at or before i that is
// not whitespace.
func skipSpaceBack(b []byte, i int) int {
	for isSpace(b[i]) {
		i--
	}
	return i
}

// skipColon consumes the ':' after a key and the whitespace around it.
func skipColon(b []byte, i int) int {
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != ':' {
		return -1
	}
	return skipSpace(b, i+1)
}

// scanString scans a quoted string of printable ASCII without escapes
// and returns the bounds of its contents and the position after the
// closing quote.
func scanString(b []byte, i int) (start, end, next int) {
	if i >= len(b) || b[i] != '"' {
		return 0, 0, -1
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return i + 1, j, j + 1
		case c < ' ' || c >= utf8.RuneSelf || c == '\\':
			return 0, 0, -1
		}
	}
	return 0, 0, -1
}

// scanUint scans a plain JSON integer ("0", or digits without a leading
// zero) that fits a uint64. A following '.', 'e' or letter is left for
// the caller, which expects a delimiter there and so rejects it.
func scanUint(b []byte, i int) (uint64, int) {
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, -1
	}
	if b[i] == '0' {
		if i+1 < len(b) && b[i+1] >= '0' && b[i+1] <= '9' {
			return 0, -1
		}
		return 0, i + 1
	}
	// Nineteen digits cannot overflow: 10¹⁹−1 < 2⁶⁴. The overflow test
	// runs from the twentieth on.
	var v uint64
	for safe := min(len(b), i+19); i < safe && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, -1
		}
		v = v*10 + d
	}
	return v, i
}

// scanInt is scanUint with an optional minus sign, for an int64.
func scanInt(b []byte, i int) (int64, int) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	v, i := scanUint(b, i)
	switch {
	case i < 0:
		return 0, -1
	case neg && v <= 1<<63:
		return -int64(v), i // -int64(1<<63) wraps to MinInt64, which is the value meant
	case !neg && v <= math.MaxInt64:
		return int64(v), i
	}
	return 0, -1
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scanFloat scans a JSON number and returns the float64 that
// strconv.ParseFloat, the conversion encoding/json itself calls, returns
// for it; a number beyond float64's range is refused as ParseFloat
// refuses it. A number without an exponent and with at most 15
// significant digits is m / 10^f with both operands exact float64s, so
// one correctly rounded division gives ParseFloat's bits (Clinger's fast
// path); every other number goes to ParseFloat itself.
func scanFloat(b []byte, i int) (float64, int) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, -1
	}
	// m gathers every digit; sig counts them from the first non-zero
	// one, and m is used only while sig ≤ 15, before it could wrap.
	var m uint64
	sig, frac := 0, 0
	if b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			m = m*10 + uint64(b[i]-'0')
			sig++
		}
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || b[i+1] < '0' || b[i+1] > '9' {
			return 0, -1
		}
		for i++; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			m = m*10 + uint64(b[i]-'0')
			if m != 0 {
				sig++
			}
			frac++
		}
	}
	exact := sig <= 15 && frac < len(exactPow10)
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		exact = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, -1
		}
		i = skipDigits(b, i)
	}
	if exact {
		v := float64(m) / exactPow10[frac]
		if neg {
			v = -v // after the division, so "-0" stays −0
		}
		return v, i
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, -1
	}
	return v, i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

func scanBool(b []byte, i int) (bool, int) {
	switch {
	case len(b)-i >= 4 && string(b[i:i+4]) == "true":
		return true, i + 4
	case len(b)-i >= 5 && string(b[i:i+5]) == "false":
		return false, i + 5
	}
	return false, -1
}

func appendRecord(dst []byte, f *fields) ([]byte, error) {
	dst = append(dst, '{')
	if f.agent != "" {
		dst = append(dst, `"agent":`...)
		dst = appendString(dst, f.agent)
		dst = append(dst, ',')
	}
	if f.seq != 0 {
		dst = append(dst, `"seq":`...)
		dst = strconv.AppendUint(dst, f.seq, 10)
		dst = append(dst, ',')
	}
	if f.redelivery {
		dst = append(dst, `"redelivery":true,`...)
	}
	dst = append(dst, `"samples":`...)
	if f.samples == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range f.samples {
			s := &f.samples[i]
			if math.IsNaN(s.PowerW) || math.IsInf(s.PowerW, 0) {
				return dst, fmt.Errorf("trace: sample %d: unsupported power value %v", i, s.PowerW)
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"node":`...)
			dst = strconv.AppendInt(dst, int64(s.Node), 10)
			dst = append(dst, `,"job":`...)
			dst = strconv.AppendUint(dst, s.JobID, 10)
			dst = append(dst, `,"t":`...)
			dst = strconv.AppendInt(dst, s.Unix, 10)
			dst = append(dst, `,"w":`...)
			dst = AppendJSONFloat(dst, s.PowerW)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if f.plsn != 0 {
		dst = append(dst, `,"plsn":`...)
		dst = strconv.AppendUint(dst, f.plsn, 10)
	}
	if f.trace != "" {
		dst = append(dst, `,"trace":`...)
		dst = appendString(dst, f.trace)
	}
	return append(dst, '}'), nil
}

// AppendJSONFloat formats a finite float64 the way encoding/json does:
// shortest round-trip digits, exponent form only below 1e-6 and from
// 1e21, and a two-digit exponent's leading zero dropped. The query
// responses of internal/serve are written with it too.
//
// A non-zero v that is exactly ±float64(k)/10 for an integer k below
// 2⁴⁰ — a reading on the 0.1 W grid — is written as k/10 and, when
// k%10 ≠ 0, one decimal: at most 13 significant digits name exactly one
// float64, and no shorter decimal lies within half an ulp of v, so that
// is the shortest form strconv would find.
func AppendJSONFloat(dst []byte, v float64) []byte {
	if a := math.Abs(v); v != 0 && a*10 < 1<<40 {
		if k := uint64(a*10 + 0.5); float64(k)/10 == a {
			if v < 0 {
				dst = append(dst, '-')
			}
			dst = strconv.AppendUint(dst, k/10, 10)
			if r := k % 10; r != 0 {
				dst = append(dst, '.', byte('0'+r))
			}
			return dst
		}
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString quotes s the way json.Marshal does, HTML escaping on:
// <, >, & and U+2028/9 as \u escapes, control bytes as \u00xx or their
// short form, invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
