package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// encoding/json is the oracle for the whole file: whatever the scanner
// accepts must decode to json.Unmarshal's value, and whatever the
// encoder writes must be json.Marshal's bytes.

// benchSamples is one tick of a 512-node agent at the 0.1 W resolution
// of the RAPL collectors — the batch shape bench/ ships.
func benchSamples() []PowerSample {
	out := make([]PowerSample, 512)
	for i := range out {
		out[i] = PowerSample{
			Node:   i,
			JobID:  uint64(1 + i/16),
			Unix:   1_700_000_000,
			PowerW: math.Round((90+float64(i*37%1700)/10)*10) / 10,
		}
	}
	return out
}

func benchBatchBody(tb testing.TB) []byte {
	body, err := json.Marshal(SampleBatch{AgentID: "agent-0", Seq: 42, Samples: benchSamples()})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func benchWALRecord() WALRecord {
	return WALRecord{Agent: "agent-0", Seq: 42, Samples: benchSamples(), Trace: "4f2a9c0d11e8b7a3"}
}

// sameSamples is reflect.DeepEqual that also tells -0 from 0.
func sameSamples(a, b []PowerSample) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].PowerW) != math.Float64bits(b[i].PowerW) {
			return false
		}
	}
	return true
}

// checkScan holds both scanner entry points to the oracle on body: an
// accepted body must be one encoding/json accepts, with an equal value,
// whether the destination is nil or a dirty reused slice. The capacity
// of body is clipped so a read past its end panics.
func checkScan(t *testing.T, body []byte) (batchOK, recordOK bool) {
	t.Helper()
	body = body[:len(body):len(body)]
	dirty := func() []PowerSample {
		return []PowerSample{{Node: -1, JobID: 9, Unix: -9, PowerW: -9}, {Node: -2}}[:1]
	}
	for _, dst := range [][]PowerSample{nil, dirty()} {
		var want SampleBatch
		err := json.Unmarshal(body, &want)
		got, ok := ScanBatch(body, dst)
		if ok {
			if err != nil {
				t.Fatalf("ScanBatch accepted %q, encoding/json says %v", body, err)
			}
			if !reflect.DeepEqual(got, want) || !sameSamples(got.Samples, want.Samples) {
				t.Fatalf("ScanBatch(%q)\n got %#v\nwant %#v", body, got, want)
			}
		}
		batchOK = ok

		var wantRec WALRecord
		err = json.Unmarshal(body, &wantRec)
		gotRec, ok := ScanWALRecord(body, dst)
		if ok {
			if err != nil {
				t.Fatalf("ScanWALRecord accepted %q, encoding/json says %v", body, err)
			}
			if !reflect.DeepEqual(gotRec, wantRec) || !sameSamples(gotRec.Samples, wantRec.Samples) {
				t.Fatalf("ScanWALRecord(%q)\n got %#v\nwant %#v", body, gotRec, wantRec)
			}
		}
		recordOK = ok
	}
	return batchOK, recordOK
}

// checkAppend holds both encoder entry points to json.Marshal and then
// feeds the bytes back through checkScan. Bodies whose strings need no
// escaping must stay on the scanner's fast path ("samples":null, which
// no sender on the ingest path produces, does not).
func checkAppend(t *testing.T, b SampleBatch, plsn uint64, traceID string) {
	t.Helper()
	rec := WALRecord{Agent: b.AgentID, Seq: b.Seq, Samples: b.Samples, PLSN: plsn, Trace: traceID}
	wantBatch, errBatch := json.Marshal(b)
	wantRec, errRec := json.Marshal(rec)
	prefix := []byte("prefix")
	gotBatch, err := AppendBatch(prefix, &b)
	if (err != nil) != (errBatch != nil) {
		t.Fatalf("AppendBatch(%#v) error %v, json.Marshal error %v", b, err, errBatch)
	}
	gotRec, err := AppendWALRecord(nil, &rec)
	if (err != nil) != (errRec != nil) {
		t.Fatalf("AppendWALRecord(%#v) error %v, json.Marshal error %v", rec, err, errRec)
	}
	if errBatch != nil {
		return
	}
	if !bytes.Equal(gotBatch, append(prefix, wantBatch...)) {
		t.Fatalf("AppendBatch\n got %s\nwant prefix%s", gotBatch, wantBatch)
	}
	if !bytes.Equal(gotRec, wantRec) {
		t.Fatalf("AppendWALRecord\n got %s\nwant %s", gotRec, wantRec)
	}
	batchOK, _ := checkScan(t, wantBatch)
	_, recOK := checkScan(t, wantRec)
	if b.Samples == nil {
		return
	}
	if plain(b.AgentID) && !batchOK {
		t.Fatalf("scanner refused the encoder's own batch %s", wantBatch)
	}
	if plain(b.AgentID) && plain(traceID) && !recOK {
		t.Fatalf("scanner refused the encoder's own record %s", wantRec)
	}
}

// plain reports whether json.Marshal writes s without an escape.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= 0x80 || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

const canonicalBody = `{"agent":"a1","seq":7,"redelivery":true,"samples":[{"node":17,"job":42,"t":1700000000,"w":151.2},{"node":-3,"job":0,"t":-5,"w":-0}]}`
const canonicalRecord = `{"agent":"a1","seq":7,"samples":[{"node":17,"job":42,"t":1700000000,"w":151.2}],"plsn":9,"trace":"4f2a"}`

func TestScanAcceptsCanonicalForm(t *testing.T) {
	for _, tc := range []struct {
		body          string
		batch, record bool
	}{
		{canonicalBody, true, false},
		{canonicalRecord, false, true},
		{`{"samples":[{"node":1,"job":2,"t":3,"w":4.0}]}`, true, true},
		{" \t\r\n{ \"samples\" : [ { \"w\" : 1e2 , \"t\" : 3 } , { } ] , \"seq\" : 0 } \n", true, true},
		{`{"samples":[]}`, true, true},
		{`{}`, true, true},
		{`{"agent":"","samples":[{"w":1.5E+2},{"w":-0.0e-0},{"w":4.9e-324},{"w":1.7976931348623157e308}]}`, true, true},
		{`{"samples":[{"node":-9223372036854775808,"job":18446744073709551615,"t":9223372036854775807}]}`, true, true},
		{`{"seq":18446744073709551615,"agent":"!#$%'()*+,-./:;=?@[]^_{|}~ ` + "\x7f" + `","samples":[]}`, true, true},
		{`{"samples":[{"w":0.1000000000000000055511151231257827021181583404541015625}]}`, true, true},
	} {
		batchOK, recOK := checkScan(t, []byte(tc.body))
		if batchOK != tc.batch || recOK != tc.record {
			t.Errorf("%s: accepted as batch %v (want %v), as record %v (want %v)", tc.body, batchOK, tc.batch, recOK, tc.record)
		}
	}
}

func TestScanLeavesTheRestToEncodingJSON(t *testing.T) {
	for _, body := range []string{
		``, ` `, `null`, `[]`, `7`, `"x"`, `{`, `{"samples":[}`, `{"samples":[{]}`,
		`{"agent":"a\u0031","seq":1,"samples":[]}`, // escape
		`{"agent":"a\"b","seq":1,"samples":[]}`,
		"{\"agent\":\"\u00e9\",\"seq\":1,\"samples\":[]}", // non-ASCII
		"{\"agent\":\"a\tb\",\"seq\":1,\"samples\":[]}",   // control byte
		`{"Agent":"a1","seq":1,"samples":[]}`,             // case
		`{"agent":"a1","SEQ":1,"samples":[]}`,
		`{"samples":[{"Node":1}]}`,
		`{"seq":1e3,"agent":"a1","samples":[]}`, // not a plain integer
		`{"seq":1.0,"agent":"a1","samples":[]}`,
		`{"seq":01,"agent":"a1","samples":[]}`,
		`{"seq":-1,"agent":"a1","samples":[]}`,
		`{"seq":-0,"agent":"a1","samples":[]}`,
		`{"seq":18446744073709551616,"agent":"a1","samples":[]}`, // range
		`{"samples":[{"node":9223372036854775808}]}`,
		`{"samples":[{"t":-9223372036854775809}]}`,
		`{"samples":[{"job":-1}]}`,
		`{"samples":[{"node":1.5}]}`,
		`{"samples":[{"w":1e999}]}`,
		`{"samples":[{"w":.5}]}`, `{"samples":[{"w":5.}]}`, `{"samples":[{"w":+5}]}`, `{"samples":[{"w":05}]}`,
		`{"samples":[{"w":1e}]}`, `{"samples":[{"w":-}]}`, `{"samples":[{"w":0x10}]}`, `{"samples":[{"w":1_0}]}`,
		`{"samples":[{"w":NaN}]}`, `{"samples":[{"w":Inf}]}`, `{"samples":[{"w":"1"}]}`,
		`{"samples":null}`, `{"agent":null,"samples":[]}`, `{"samples":[null]}`, `{"samples":[{"w":null}]}`,
		`{"samples":[],"extra":1}`, `{"samples":[{"node":1,"x":2}]}`, // unknown key
		`{"samples":[],"samples":[]}`, `{"seq":1,"seq":1,"samples":[]}`, // duplicate key
		`{"samples":[{"node":1,"node":1}]}`,
		`{"redelivery":1,"samples":[]}`, `{"redelivery":"true","samples":[]}`, `{"redelivery":tru`,
		`{"samples":[]} x`, `{"samples":[]}{}`, `{"samples":[]},`, // trailing garbage
		`{"samples":[],}`, `{"samples":[{"node":1,}]}`, `{"samples":[{"node":1},]}`, `{,"samples":[]}`,
		`{"samples" []}`, `{"samples":[{"node" 1}]}`, `{samples:[]}`, `{'samples':[]}`,
	} {
		if b, ok := ScanBatch([]byte(body), nil); ok {
			t.Errorf("ScanBatch accepted %q as %#v", body, b)
		}
		if r, ok := ScanWALRecord([]byte(body), nil); ok {
			t.Errorf("ScanWALRecord accepted %q as %#v", body, r)
		}
		checkScan(t, []byte(body))
	}
}

func TestScanTruncatedAtEveryOffset(t *testing.T) {
	for _, body := range []string{canonicalBody, canonicalRecord} {
		for n := 0; n < len(body); n++ {
			if batchOK, recOK := checkScan(t, []byte(body[:n])); batchOK || recOK {
				t.Errorf("accepted the %d-byte prefix %q", n, body[:n])
			}
		}
	}
}

func TestAppendMatchesJSONMarshal(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 151.2, 100, 0.1, 1e21, 9.999999999999999e20, 1e-6, 1e-7, 9.99e-7,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 1e100, 1.5e-9, 123456789.125, math.NaN(), math.Inf(1)}
	strs := []string{"", "agent-0", `<>&"\`, "\x00\x01\b\t\n\f\r\x1f\x7f", "a\xffb\xc0", "caf\u00e9 \u2028\u2029 \U0001f50c", "\xe2\x80"}
	for _, w := range floats {
		for _, s := range strs {
			b := SampleBatch{AgentID: s, Seq: math.MaxUint64, Redelivery: len(s)%2 == 0, Samples: []PowerSample{
				{Node: math.MinInt, JobID: math.MaxUint64, Unix: math.MinInt64, PowerW: w},
				{Node: math.MaxInt, Unix: math.MaxInt64, PowerW: 151.2},
			}}
			checkAppend(t, b, math.MaxUint64, s)
		}
	}
	checkAppend(t, SampleBatch{}, 0, "")                         // "samples":null
	checkAppend(t, SampleBatch{Samples: []PowerSample{}}, 0, "") // "samples":[]
	checkAppend(t, SampleBatch{AgentID: "a1", Seq: 1, Samples: benchSamples()}, 3, "4f2a")
}

// TestGridReadingsMatchJSON runs the 0.1 W grid through the oracles:
// every k/10 for k < 2¹⁷, its neighbours one ulp either side, the
// negatives of all three, and −0. Each is written by AppendJSONFloat
// against json.Marshal and read back by scanFloat against
// strconv.ParseFloat, encoding/json's conversion; the first 6,144 also
// cross checkAppend as one record.
func TestGridReadingsMatchJSON(t *testing.T) {
	samples := make([]PowerSample, 0, 6<<10)
	check := func(w float64) {
		want, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendJSONFloat(nil, w)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONFloat(%v) = %s, json.Marshal says %s", w, got, want)
		}
		if v, n := scanFloat(got, 0); n != len(got) || math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("scanFloat(%s) = %v, %d", got, v, n)
		}
		if len(samples) < cap(samples) {
			samples = append(samples, PowerSample{Node: len(samples), JobID: 1, Unix: 1_700_000_000, PowerW: w})
		}
	}
	check(math.Copysign(0, -1))
	for k := 0; k < 1<<17; k++ {
		v := float64(k) / 10
		for _, w := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			check(w)
			check(-w)
		}
	}
	checkAppend(t, SampleBatch{AgentID: "a1", Seq: 1, Samples: samples}, 2, "4f2a")
}

// checkSameVerdict is checkScan on a body inside the scanner's grammar
// but for its numbers, which the scanner must then accept exactly when
// encoding/json does.
func checkSameVerdict(t *testing.T, body string) {
	t.Helper()
	batchOK, recOK := checkScan(t, []byte(body))
	var b SampleBatch
	want := json.Unmarshal([]byte(body), &b) == nil
	if batchOK != want || recOK != want {
		t.Errorf("%s: accepted as batch %v, as record %v; encoding/json accepts it: %v", body, batchOK, recOK, want)
	}
}

// TestNumberBoundaries walks the edges of the exact shortcuts, each in
// the encoder's own sample layout and in a reordered, spaced one:
// decimals either side of 15 significant digits and of 10²², and
// integers either side of 19 digits and of their type's range.
func TestNumberBoundaries(t *testing.T) {
	for _, w := range []string{
		"0", "-0", "-0.0", "0.05", "-0.05", "123.0", "123.00", "151.2", "151.20000000000002", "0.30000000000000004",
		"123456789012345", "1234567890123456", "-123456789012345", "-1234567890123456",
		"0.123456789012345", "0.1234567890123456", "12345678.9012345", "12345678.90123456",
		"99999999999999.9", "999999999999999.9", "999999999999999", "9999999999999999",
		"9007199254740993", "4503599627370497.5", "0.000123456789012345", "0.0001234567890123456",
		"0.0000000000000000000001", "0.00000000000000000000001", "1e-22", "100000000000000000000000",
		"1.00000000000000000000", "1.7976931348623157e308", "1e400", "4.9e-324",
	} {
		checkSameVerdict(t, `{"samples":[{"node":1,"job":2,"t":3,"w":`+w+`}]}`)
		checkSameVerdict(t, `{"samples":[{"w": `+w+` ,"node":1}]}`)
	}
	for _, n := range []string{
		"0", "-0", "1000000000000000000", "-1000000000000000000",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"9999999999999999999", "-9999999999999999999", "10000000000000000000", "-10000000000000000000",
		"18446744073709551615", "18446744073709551616", "18446744073709551619", "18446744073709551620",
		"99999999999999999999", "184467440737095516150",
	} {
		checkSameVerdict(t, `{"seq":`+n+`,"samples":[]}`)
		checkSameVerdict(t, `{"samples":[{"node":`+n+`,"job":2,"t":3,"w":4}]}`)
		checkSameVerdict(t, `{"samples":[{"node":1,"job":`+n+`,"t":3,"w":4}]}`)
		checkSameVerdict(t, `{"samples":[{"node":1,"job":2,"t":`+n+`,"w":4}]}`)
		checkSameVerdict(t, `{"samples":[{"t":3, "job":`+n+`}]}`)
		checkSameVerdict(t, `{"samples":[{"job":2,"t":`+n+`,"node":`+n+`}]}`)
	}
}

func FuzzBatchCodec(f *testing.F) {
	f.Add([]byte(canonicalBody), "a1", "4f2a", uint64(7), uint64(9), uint64(42), math.Float64bits(151.2), int64(17), int64(1_700_000_000))
	f.Add([]byte(`{"samples":[{"node":17,"job":42,"t":1700000000,"w":151.2},{"node":-9223372036854775808,"job":18446744073709551615,"t":9223372036854775807,"w":0.05}]}`), "a", "t", uint64(1), uint64(2), uint64(3), math.Float64bits(0.1), int64(4), int64(5))
	f.Add([]byte(`{"samples":[{"node":17,"job":42,"t":1700000000,"w":151.2 },{ "node":17,"job":42,"t":1700000000,"w":0.1234567890123456},{"job":42,"node":17,"w":-0.0,"t":1700000000}]}`), "a", "t", uint64(1), uint64(2), uint64(3), math.Float64bits(-151.2), int64(4), int64(5))
	f.Add([]byte(canonicalRecord), `<>&"\`, "\x00\x1f\xff", uint64(math.MaxUint64), uint64(0), uint64(math.MaxUint64), math.Float64bits(5e-324), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add([]byte(`{"agent":"a1","Seq":1e3,"samples":[{"w":1E+2}],"samples":null} x`), "", "", uint64(0), uint64(1), uint64(0), math.Float64bits(1e21), int64(0), int64(0))
	f.Add([]byte(" {\"samples\" : [ { } , {\"w\":-0} ] }\n"), "\u00e9\u2028", "t", uint64(1), uint64(1), uint64(1), math.Float64bits(math.Copysign(0, -1)), int64(-1), int64(-1))
	f.Add([]byte(`{"samples":[{"node":9223372036854775808,"job":18446744073709551616,"w":1e999}]}`), "a", "b", uint64(2), uint64(3), uint64(4), math.Float64bits(1e-7), int64(5), int64(6))
	f.Fuzz(func(t *testing.T, body []byte, agent, traceID string, seq, plsn, job, wbits uint64, node, unix int64) {
		// (a) agreement with encoding/json on arbitrary bytes, and
		// (b) on every truncation of them; short inputs only, so that
		// the quadratic prefix walk stays cheap.
		checkScan(t, body)
		if len(body) <= 256 {
			for n := range body {
				checkScan(t, body[:n])
			}
		}
		// (c) the encoder against json.Marshal, then its output back
		// through (a).
		if int64(int(node)) != node {
			node = 0
		}
		// Half the readings are on the 0.1 W grid, which uniform bit
		// patterns would almost never hit.
		grid := float64(wbits%(1<<20)) / 10
		if wbits&(1<<20) != 0 {
			grid = -grid
		}
		checkAppend(t, SampleBatch{AgentID: agent, Seq: seq, Redelivery: seq%2 == 1, Samples: []PowerSample{
			{Node: int(node), JobID: job, Unix: unix, PowerW: math.Float64frombits(wbits)},
			{Node: 1, JobID: 2, Unix: 3, PowerW: grid},
		}}, plsn, traceID)
	})
}

// FuzzJSONNumber holds the number conversions to the functions
// encoding/json calls: scanFloat to strconv.ParseFloat on any text, and
// AppendJSONFloat to json.Marshal on any bits and on the 0.1 W grid.
func FuzzJSONNumber(f *testing.F) {
	for _, s := range []string{"151.2", "-0", "-0.0", "0.05", "123.0", "1e-22", "0.0000000000000000000001",
		"0.1234567890123456", "9007199254740993", "18446744073709551616", "1.5E+2", "1e999",
		"05", "5.", ".5", "+5", "-", "1e", "0x10", "1_0", "Inf", "NaN", " 1", "1 ", "1,"} {
		f.Add(s, math.Float64bits(151.2))
	}
	f.Fuzz(func(t *testing.T, text string, bits uint64) {
		b := []byte(text)
		v, n := scanFloat(b[:len(b):len(b)], 0)
		want, err := strconv.ParseFloat(text, 64)
		// A JSON number starts with '-' or a digit and ends with a
		// digit, which keeps json.Valid's surrounding whitespace out.
		digit := func(c byte) bool { return c >= '0' && c <= '9' }
		number := len(b) > 0 && (b[0] == '-' || digit(b[0])) && digit(b[len(b)-1]) && json.Valid(b)
		switch {
		case number && err == nil && (n != len(b) || math.Float64bits(v) != math.Float64bits(want)):
			t.Fatalf("scanFloat(%q) = %v, %d; strconv.ParseFloat says %v", text, v, n, want)
		case number && err != nil && n >= 0:
			t.Fatalf("scanFloat(%q) = %v, %d; strconv.ParseFloat says %v", text, v, n, err)
		case !number && n == len(b):
			t.Fatalf("scanFloat accepted %q, which is not a JSON number", text)
		case n > 0 && n < len(b):
			if p, err := strconv.ParseFloat(text[:n], 64); err != nil || math.Float64bits(p) != math.Float64bits(v) {
				t.Fatalf("scanFloat(%q) = %v at %d; strconv.ParseFloat(%q) = %v, %v", text, v, n, text[:n], p, err)
			}
		}
		grid := float64(bits%(1<<40)) / 10
		for _, w := range []float64{math.Float64frombits(bits), grid, -grid, v} {
			want, err := json.Marshal(w)
			if err != nil {
				continue // NaN, ±Inf
			}
			if got := AppendJSONFloat(nil, w); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSONFloat(%v) = %s, json.Marshal says %s", w, got, want)
			}
		}
	})
}

// TestBatchDecodeAllocs pins the codec's allocation budget: with a
// reused destination the scanner allocates only the agent and trace
// strings, in the encoder's layout or off it, and the encoder nothing.
func TestBatchDecodeAllocs(t *testing.T) {
	body := benchBatchBody(t)
	dst := make([]PowerSample, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		b, ok := ScanBatch(body, dst)
		if !ok || len(b.Samples) != 512 {
			t.Fatalf("scan failed: ok=%v samples=%d", ok, len(b.Samples))
		}
	})
	if allocs > 1 {
		t.Errorf("ScanBatch allocates %.0f times per 512-sample batch, want at most 1", allocs)
	}
	// The same samples off the encoder's layout take the key loop.
	spaced := bytes.ReplaceAll(body, []byte(`{"node":`), []byte(`{ "node":`))
	allocs = testing.AllocsPerRun(100, func() {
		if b, ok := ScanBatch(spaced, dst); !ok || len(b.Samples) != 512 {
			t.Fatalf("scan failed: ok=%v samples=%d", ok, len(b.Samples))
		}
	})
	if allocs > 1 {
		t.Errorf("ScanBatch allocates %.0f times per off-layout 512-sample batch, want at most 1", allocs)
	}
	rec := benchWALRecord()
	buf, err := AppendWALRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if r, ok := ScanWALRecord(buf, dst); !ok || len(r.Samples) != 512 {
			t.Fatalf("scan failed: ok=%v samples=%d", ok, len(r.Samples))
		}
	})
	if allocs > 2 {
		t.Errorf("ScanWALRecord allocates %.0f times per 512-sample record, want at most 2 (agent and trace)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = AppendWALRecord(buf[:0], &rec) }); allocs != 0 {
		t.Errorf("AppendWALRecord into a reused buffer allocates %.0f times, want 0", allocs)
	}
}

var (
	sinkBatch  SampleBatch
	sinkRecord WALRecord
	sinkBytes  []byte
)

func BenchmarkBatchDecode(b *testing.B) {
	body := benchBatchBody(b)
	dst := make([]PowerSample, 0, 512)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if sinkBatch, ok = ScanBatch(body, dst); !ok {
			b.Fatal("not on the fast path")
		}
	}
}

// BenchmarkBatchDecodeStdlib is the decode handleIngest ran before the
// scanner, and still runs for a body the scanner hands back.
func BenchmarkBatchDecodeStdlib(b *testing.B) {
	body := benchBatchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batch SampleBatch
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
			b.Fatal(err)
		}
		sinkBatch = batch
	}
}

func BenchmarkWALRecordEncode(b *testing.B) {
	rec := benchWALRecord()
	buf, _ := AppendWALRecord(nil, &rec)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendWALRecord(buf[:0], &rec)
	}
	sinkBytes = buf
}

// BenchmarkWALRecordEncodeStdlib is the json.Marshal the encoder replaced.
func BenchmarkWALRecordEncodeStdlib(b *testing.B) {
	rec := benchWALRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBytes, _ = json.Marshal(rec)
	}
	b.SetBytes(int64(len(sinkBytes)))
}

func BenchmarkWALRecordDecode(b *testing.B) {
	rec := benchWALRecord()
	body, _ := AppendWALRecord(nil, &rec)
	dst := make([]PowerSample, 0, 512)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if sinkRecord, ok = ScanWALRecord(body, dst); !ok {
			b.Fatal("not on the fast path")
		}
	}
}
