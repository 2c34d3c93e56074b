package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/core"
	"hpcpower/internal/rng"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

// viaEncodingJSON is the response as handleQueryRange wrote it before it
// had an encoder of its own; ok is whether Encode succeeded.
func viaEncodingJSON(r *rangeResponse) ([]byte, bool) {
	m := map[string]any{"node": r.node, "frontier": r.frontier, "points": r.points, "degraded": r.degraded}
	if r.step > 0 {
		m["step"], m["points"] = r.step, r.aggs
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(m)
	return buf.Bytes(), err == nil
}

// TestRangeResponseMatchesEncodingJSON pins the append encoder to the
// bytes of json.NewEncoder(w).Encode(map[string]any{…}), raw and step=.
func TestRangeResponseMatchesEncodingJSON(t *testing.T) {
	// Every form encoding/json has for a float64: plain, both exponent
	// forms and the numbers on either side of where they start, −0,
	// integers, sensor readings at 0.1 W, the extremes.
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 151, 151.2, 90.1, 349.9, 0.1, 0.30000000000000004,
		1e-7, 1.5e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1.5e21, -1e21, 1e22, 1e100, 1e-100,
		123456789.125, 5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	var points []tsdb.Point
	var aggs []block.AggPoint
	for i, f := range floats {
		points = append(points, tsdb.Point{Unix: 1_700_000_000 + int64(i)*60, PowerW: f})
		aggs = append(aggs, block.AggPoint{T: int64(i) * 300, Count: int64(i), Sum: f, Min: floats[(i+1)%len(floats)], Max: floats[(i+2)%len(floats)]})
	}
	cases := map[string]rangeResponse{
		"raw nil points":       {node: 3, frontier: 7200},
		"raw empty points":     {node: 3, frontier: 7200, points: []tsdb.Point{}},
		"raw degraded":         {node: 0, frontier: 0, degraded: true, points: points[:3]},
		"raw every float form": {node: math.MaxInt32, frontier: math.MaxInt64, points: points},
		"raw negative times":   {node: 1, frontier: -1, points: []tsdb.Point{{Unix: math.MinInt64, PowerW: 1}, {Unix: -60, PowerW: 2}}},
		"raw with aggs set":    {node: 1, points: points[:2], aggs: aggs[:1]}, // step 0: aggs are not part of it
		"step nil points":      {node: 3, step: 300, frontier: 7200},
		"step empty points":    {node: 3, step: 300, frontier: 7200, aggs: []block.AggPoint{}},
		"step degraded":        {node: 9, step: 1, frontier: 14400, degraded: true, aggs: aggs[:2]},
		"step every form":      {node: 1023, step: 3600, frontier: 1_700_000_000, aggs: aggs},
		"raw NaN":              {points: []tsdb.Point{{Unix: 1, PowerW: 1}, {Unix: 2, PowerW: math.NaN()}}},
		"raw +Inf":             {points: []tsdb.Point{{Unix: 1, PowerW: math.Inf(1)}}},
		"step -Inf min":        {step: 60, aggs: []block.AggPoint{{T: 0, Count: 1, Sum: 1, Min: math.Inf(-1), Max: 1}}},
		"step NaN sum":         {step: 60, aggs: []block.AggPoint{{T: 0, Count: 1, Sum: math.NaN(), Min: 1, Max: 1}}},
		"step overflowed max":  {step: 60, aggs: []block.AggPoint{{T: 0, Count: 2, Sum: 2, Min: 1, Max: math.Inf(1)}}},
	}
	for name, r := range cases {
		want, wantOK := viaEncodingJSON(&r)
		got, ok := r.appendJSON([]byte("kept:"))
		if ok != wantOK {
			t.Errorf("%s: ok = %v, json.Encoder succeeded = %v", name, ok, wantOK)
			continue
		}
		if ok && !bytes.Equal(got, append([]byte("kept:"), want...)) {
			t.Errorf("%s:\n got %s\nwant kept:%s", name, got, want)
		}
	}
}

// TestUnencodableQueryIs500: once node 1's minute sums past
// float64's range, the range aggregate and the distribution have no
// JSON form. Each is answered 500 with the error encoding/json gives
// for +Inf, not a 200 with no body.
func TestUnencodableQueryIs500(t *testing.T) {
	s, ts := testNode{}.start(t)
	var batch trace.SampleBatch
	for i, w := range []float64{1e308, 1e308, 5} {
		batch.Samples = append(batch.Samples, trace.PowerSample{Node: 1, JobID: 7, Unix: 1_700_000_040 + 5*int64(i), PowerW: w})
	}
	if resp, body := postJSON(t, ts.URL+"/v1/samples", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	waitIngested(t, s, 3)
	_, want := json.Marshal(math.Inf(1))
	for _, path := range []string{"/v1/query/range?node=1&step=60", "/v1/query/distribution"} {
		resp, body := get(t, ts.URL+path)
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &eb); resp.StatusCode != http.StatusInternalServerError || err != nil || eb.Error != want.Error() {
			t.Errorf("%s = %d %q (%v), want 500 with the error %q", path, resp.StatusCode, body, err, want)
		}
	}
}

// TestDistResponseMatchesEncodingJSON pins the distribution's append
// encoder to the bytes of the json.NewEncoder(w).Encode(map[string]any{
// "distribution", "frontier", "degraded"}) it replaced: every float form
// in every field, a nil and an empty CDF, and no body where a value is
// not finite.
func TestDistResponseMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, 151.2, 0.30000000000000004, 1e-7, -1e-7, 9.99e-7, 1e20, 1e21,
		-1.5e21, 1e100, 5e-324, math.MaxFloat64, 1.0 / 3}
	var cdf []stats.Point
	for i, f := range floats {
		cdf = append(cdf, stats.Point{X: f, Y: floats[(i+3)%len(floats)]})
	}
	dist := func(i int) core.LiveDist {
		at := func(k int) float64 { return floats[(i+k)%len(floats)] }
		return core.LiveDist{N: int64(i) * 1000, Mean: at(0), Min: at(1), Max: at(2), P50: at(3), P80: at(4), P95: at(5), CDF: cdf[i%3:]}
	}
	cases := map[string]distResponse{
		"empty":          {frontier: 7200},
		"empty CDF":      {dist: core.LiveDist{N: 1, CDF: []stats.Point{}}, degraded: true},
		"NaN mean":       {dist: core.LiveDist{N: 1, Mean: math.NaN()}},
		"Inf max":        {dist: core.LiveDist{N: 1, Max: math.Inf(1), CDF: cdf[:1]}},
		"NaN in the CDF": {dist: core.LiveDist{N: 1, CDF: []stats.Point{{X: 1, Y: 1}, {X: math.NaN(), Y: 1}}}},
	}
	for i := range floats {
		cases[fmt.Sprintf("floats from %d", i)] = distResponse{dist: dist(i), frontier: int64(i) * 7200, degraded: i%2 == 1}
	}
	for name, r := range cases {
		var want bytes.Buffer
		wantOK := json.NewEncoder(&want).Encode(map[string]any{"distribution": r.dist, "frontier": r.frontier, "degraded": r.degraded}) == nil
		got, ok := r.appendJSON([]byte("kept:"))
		if ok != wantOK {
			t.Errorf("%s: ok = %v, json.Encoder succeeded = %v", name, ok, wantOK)
			continue
		}
		if ok && !bytes.Equal(got, append([]byte("kept:"), want.Bytes()...)) {
			t.Errorf("%s:\n got %s\nwant kept:%s", name, got, want.Bytes())
		}
	}
}

// rangeFixtureServer holds six hours of node 1 at 0.1 W (and a second
// node around it), the first four hours sealed into two blocks and the
// last two in the head: the 360-point read the dashboards make.
func rangeFixtureServer(t testing.TB) string {
	s, ts := blockNode.start(t)
	src := rng.New(20)
	var samples []trace.PowerSample
	for tick := int64(0); tick < 360; tick++ {
		for node := 0; node < 2; node++ {
			w := math.Round((90+260*src.Float64())*10) / 10
			samples = append(samples, trace.PowerSample{Node: node, JobID: 1, Unix: qWindow + tick*60, PowerW: w})
		}
	}
	if err := s.store.Append(samples); err != nil {
		t.Fatal(err)
	}
	if sealed, err := s.store.FlushBlocks(3 * qWindow); err != nil || sealed != 2 {
		t.Fatalf("sealed %d windows, err %v, want 2", sealed, err)
	}
	if _, err := s.store.Blocks().CompactPending(); err != nil {
		t.Fatal(err)
	}
	return ts.URL
}

// TestRangeResponseFixture compares what the handler sends over HTTP with
// testdata/range_*.json, which are the bodies the encoding/json handler
// of PR 19 (commit 5cd4e74) sent for the same store and requests.
func TestRangeResponseFixture(t *testing.T) {
	url := rangeFixtureServer(t)
	for file, query := range map[string]string{
		"range_360_raw.json":  fmt.Sprintf("/v1/query/range?node=1&from=%d&to=%d", qWindow, 4*qWindow-1),
		"range_360_step.json": fmt.Sprintf("/v1/query/range?node=1&from=%d&to=%d&step=300", qWindow, 4*qWindow-1),
		"range_none.json":     "/v1/query/range?node=7&from=1&to=2",
	} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		resp, got := get(t, url+query)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q", query, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: body differs from testdata/%s:\n got %.200s\nwant %.200s", query, file, got, want)
		}
	}
}

// BenchmarkRangeResponseEncode is the encode share of a six-hour raw
// range read, 360 points at 0.1 W: the append encoder into its pooled
// buffer against the encoding/json call it replaced.
func BenchmarkRangeResponseEncode(b *testing.B) {
	src := rng.New(20)
	r := &rangeResponse{node: 17, frontier: 1_700_000_000, points: make([]tsdb.Point, 360)}
	for i := range r.points {
		r.points[i] = tsdb.Point{Unix: 1_700_000_000 + int64(i)*60, PowerW: math.Round((90+260*src.Float64())*10) / 10}
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := responsePool.Get().(*[]byte)
			*buf, _ = r.appendJSON((*buf)[:0])
			io.Discard.Write(*buf)
			responsePool.Put(buf)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := json.NewEncoder(io.Discard).Encode(map[string]any{
				"node": r.node, "frontier": r.frontier, "points": r.points, "degraded": r.degraded})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDistResponseEncode is the encode share of a distribution
// pull: a LiveDist of a fleet-wide 6 h pull (its 200 CDF points at the
// fleet's 0.1 W readings and their ranks) through the append encoder
// against the encoding/json call it replaced.
func BenchmarkDistResponseEncode(b *testing.B) {
	src := rng.New(20)
	values := make([]float64, 1024*360)
	for i := range values {
		values[i] = math.Round((90+260*src.Float64())*10) / 10
	}
	r := &distResponse{dist: core.DistFromValues(values), frontier: 1_700_000_000}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := responsePool.Get().(*[]byte)
			*buf, _ = r.appendJSON((*buf)[:0])
			io.Discard.Write(*buf)
			responsePool.Put(buf)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := json.NewEncoder(io.Discard).Encode(map[string]any{
				"distribution": r.dist, "frontier": r.frontier, "degraded": r.degraded})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
