package serve

// Every error answer is written by refuse. An ingest refusal past the
// gates is answered and counted from its row of the refusals table.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The legacy batch counters a refusal moves.
const (
	counterRejected = "powserved_batches_rejected_total"
	counterInvalid  = "powserved_batches_invalid_total"
)

const followerMsg = "this node is a read-only follower — send writes to the primary"

// refusal is the answer to a refusing outcome. Its message is msg and
// the outcome's error, or, for an over_capacity shed, "over capacity: "
// and the shed reason; retry asks the client back after the queue's
// drain time.
type refusal struct {
	reason, code, counter, msg string
	status                     int
	retry                      bool
}

// refusals maps each refusing outcome to its answer, which handleIngest
// writes and counts; README's Refusals table lists the same reasons.
var refusals = [numOutcomes]refusal{
	outStorage:     {reason: "storage", status: http.StatusServiceUnavailable, code: CodeStorageDegraded, counter: counterRejected, msg: "storage degraded: ", retry: true},
	outMemory:      {reason: "memory", status: http.StatusTooManyRequests, code: CodeOverCapacity, counter: counterRejected},
	outInvalid:     {reason: "invalid", status: http.StatusBadRequest, counter: counterInvalid},
	outAgentRate:   {reason: "agent_rate", status: http.StatusTooManyRequests, code: CodeOverCapacity, counter: counterRejected},
	outLimiter:     {reason: "limiter", status: http.StatusTooManyRequests, code: CodeOverCapacity, counter: counterRejected},
	outFull:        {reason: "queue", status: http.StatusTooManyRequests, code: CodeOverCapacity, counter: counterRejected},
	outDraining:    {reason: "draining", status: http.StatusServiceUnavailable, counter: counterRejected, msg: "server draining", retry: true},
	outShed:        {reason: "codel", status: http.StatusTooManyRequests, code: CodeOverCapacity, counter: counterRejected},
	outReplication: {reason: "replication", status: http.StatusInternalServerError, counter: counterRejected},
	outNotPrimary:  {reason: "not_primary", status: http.StatusServiceUnavailable, code: CodeNotPrimary, counter: counterRejected, msg: followerMsg},
	outEncode:      {reason: "encode", status: http.StatusInternalServerError, counter: counterRejected},
}

// refuse writes an error answer: the status, the message and code (if
// any) as JSON, and the code's headers. A retry above 0 asks the client
// back (Retry-After, seconds rounded up); over_capacity always asks, after
// a hint from queue occupancy if retry is 0, and adds it in milliseconds.
func (s *Server) refuse(w http.ResponseWriter, status int, code string, retry time.Duration, format string, args ...any) {
	h := w.Header()
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if code != "" {
		body["code"] = code
	}
	switch code {
	case CodeOverCapacity:
		if retry <= 0 {
			occ := float64(s.ingestQ.Len()) / float64(s.ingestQ.Cap())
			retry = 50*time.Millisecond + time.Duration(occ*float64(time.Second))
		}
		h.Set(HeaderRetryAfterMs, strconv.FormatInt(retry.Milliseconds(), 10))
		h.Set(HeaderOverCapacity, "1")
	case CodeStorageDegraded:
		h.Set(HeaderStorageDegraded, "1")
	case CodeNotPrimary:
		h.Set(HeaderReplRole, RoleFollower)
		if hint := s.dur.repl.primaryHint(); hint != "" {
			body["primary"] = hint
		}
	case CodeStaleEpoch:
		h.Set(HeaderReplFenced, "1")
	case CodeNoLease:
		h.Set(HeaderReplLease, "expired")
	}
	if retry > 0 {
		h.Set("Retry-After", strconv.Itoa(max(1, int((retry+time.Second-1)/time.Second))))
	}
	h.Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers v as JSON, encoded whole before the status is sent:
// a value JSON has no form for (a +Inf statistic) is answered 500 with
// the encoder's error.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.refuse(w, http.StatusInternalServerError, "", 0, "%v", err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(buf.Bytes())
	}
	if buf.Reset(); buf.Cap() <= maxPooledResponse {
		jsonBufs.Put(buf)
	}
}
