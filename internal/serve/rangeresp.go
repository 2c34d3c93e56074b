package serve

import (
	"math"
	"net/http"
	"strconv"
	"sync"

	"hpcpower/internal/block"
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

// finite reports whether JSON has a form for v.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// maxPooledResponse bounds the buffers responsePool keeps: six hours of
// one node are some 11 KB, and one months-long read should not pin its
// megabytes forever.
const maxPooledResponse = 1 << 18

var responsePool = sync.Pool{New: func() any { return new([]byte) }}

// writeRangeResponse answers 200 with r, encoded into a pooled buffer.
// Like the json.Encoder it replaces, it sends no body when r cannot be
// encoded.
func writeRangeResponse(w http.ResponseWriter, r *rangeResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	buf := responsePool.Get().(*[]byte)
	body, ok := r.appendJSON((*buf)[:0])
	if ok {
		w.Write(body)
	}
	if *buf = body; cap(body) <= maxPooledResponse {
		responsePool.Put(buf)
	}
}
