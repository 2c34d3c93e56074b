package serve

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"sync"

	"hpcpower/internal/block"
	"hpcpower/internal/core"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

// rangeResponse is the body of GET /v1/query/range, raw (step 0, points)
// or aggregated (step > 0, aggs).
type rangeResponse struct {
	node     int
	step     int64
	frontier int64
	degraded bool
	points   []tsdb.Point
	aggs     []block.AggPoint
}

// appendJSON appends what json.NewEncoder(w).Encode(map[string]any{
// "node", "frontier", "points", "degraded"[, "step"]}) writes for r, byte
// for byte: keys in sorted order, null for a nil points slice and [] for
// an empty one, encoding/json's float format, a trailing newline. ok is
// false where Encode fails, on a value JSON has no form for.
func (r *rangeResponse) appendJSON(dst []byte) (_ []byte, ok bool) {
	dst = append(dst, `{"degraded":`...)
	dst = strconv.AppendBool(dst, r.degraded)
	dst = append(dst, `,"frontier":`...)
	dst = strconv.AppendInt(dst, r.frontier, 10)
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendInt(dst, int64(r.node), 10)
	dst = append(dst, `,"points":`...)
	ok = true
	switch {
	case r.step > 0 && r.aggs != nil:
		dst = append(dst, '[')
		for i, a := range r.aggs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"t":`...), a.T, 10)
			dst = strconv.AppendInt(append(dst, `,"count":`...), a.Count, 10)
			ok = ok && finite(a.Sum) && finite(a.Min) && finite(a.Max)
			dst = trace.AppendJSONFloat(append(dst, `,"sum":`...), a.Sum)
			dst = trace.AppendJSONFloat(append(dst, `,"min":`...), a.Min)
			dst = trace.AppendJSONFloat(append(dst, `,"max":`...), a.Max)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	case r.step <= 0 && r.points != nil:
		dst = append(dst, '[')
		for i, p := range r.points {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"t":`...), p.Unix, 10)
			ok = ok && finite(p.PowerW)
			dst = trace.AppendJSONFloat(append(dst, `,"w":`...), p.PowerW)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	default:
		dst = append(dst, "null"...)
	}
	if r.step > 0 {
		dst = strconv.AppendInt(append(dst, `,"step":`...), r.step, 10)
	}
	return append(dst, '}', '\n'), ok
}

// distResponse is the body of GET /v1/query/distribution.
type distResponse struct {
	dist     core.LiveDist
	frontier int64
	degraded bool
}

// appendJSON appends what json.NewEncoder(w).Encode(map[string]any{
// "distribution", "frontier", "degraded"}) writes for r, byte for byte,
// as rangeResponse.appendJSON does: keys in sorted order, the LiveDist's
// fields in its own order (its CDF points' keys X and Y, null for a nil
// CDF), a trailing newline; ok is false where a value has no JSON form.
func (r *distResponse) appendJSON(dst []byte) (_ []byte, ok bool) {
	d := &r.dist
	dst = append(dst, `{"degraded":`...)
	dst = strconv.AppendBool(dst, r.degraded)
	dst = strconv.AppendInt(append(dst, `,"distribution":{"n":`...), d.N, 10)
	ok = true
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"mean":`, d.Mean}, {`,"min":`, d.Min}, {`,"max":`, d.Max}, {`,"p50":`, d.P50}, {`,"p80":`, d.P80}, {`,"p95":`, d.P95}} {
		ok = ok && finite(f.v)
		dst = trace.AppendJSONFloat(append(dst, f.key...), f.v)
	}
	dst = append(dst, `,"cdf":`...)
	if d.CDF == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, p := range d.CDF {
			if i > 0 {
				dst = append(dst, ',')
			}
			ok = ok && finite(p.X) && finite(p.Y)
			dst = trace.AppendJSONFloat(append(dst, `{"X":`...), p.X)
			dst = trace.AppendJSONFloat(append(dst, `,"Y":`...), p.Y)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `},"frontier":`...), r.frontier, 10)
	return append(dst, '}', '\n'), ok
}

// finite reports whether JSON has a form for v.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// maxPooledResponse bounds the buffers responsePool keeps: six hours of
// one node are some 11 KB, and one months-long read should not pin its
// megabytes forever.
const maxPooledResponse = 1 << 18

var responsePool = sync.Pool{New: func() any { return new([]byte) }}

// appendResponse is a response body with an append encoder of its own.
type appendResponse interface {
	appendJSON(dst []byte) ([]byte, bool)
}

// writeResponse answers 200 with r, encoded into a pooled buffer before
// the status is sent. A value JSON has no form for is answered 500 with
// the error encoding/json gives for it, as writeJSON answers.
func (s *Server) writeResponse(w http.ResponseWriter, r appendResponse) {
	buf := responsePool.Get().(*[]byte)
	body, ok := r.appendJSON((*buf)[:0])
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	} else {
		s.refuse(w, http.StatusInternalServerError, "", 0, "json: unsupported value: %s", nonFinite(body))
	}
	if *buf = body; cap(body) <= maxPooledResponse {
		responsePool.Put(buf)
	}
}

// nonFinite is the first value in body, what an appendJSON that failed
// wrote, that JSON has no form for. AppendJSONFloat spells it as strconv
// does, +Inf, -Inf or NaN, which is how encoding/json names it; no key of
// these bodies holds a capital I or N.
func nonFinite(body []byte) string {
	switch i := bytes.IndexAny(body, "IN"); {
	case i < 0:
		return ""
	case body[i] == 'N':
		return string(body[i : i+len("NaN")])
	default:
		return string(body[i-1 : i+len("Inf")]) // and its sign
	}
}
