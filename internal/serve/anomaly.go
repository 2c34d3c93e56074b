package serve

// Anomaly surface: GET /v1/anomalies serves the engine's event ring,
// active alerts, and per-job fingerprints; stream=1 upgrades to a
// long-lived NDJSON event feed (routed around the request timeout like
// the replication stream). The powserved_anomaly_* / powserved_alert_*
// families are emitted by the collectAnomaly collector, and /readyz
// carries a machine-readable detector block.

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/obs"
)

// anomalyEventLimit is the default (and maximum) event-list page; the
// ring holds more, selected with since_seq cursors.
const anomalyEventLimit = 256

// parseAnomalyFilter builds the ring filter from query parameters:
// job, node, rule, type, severity (minimum name), since (unix),
// since_seq, limit.
func parseAnomalyFilter(q url.Values) (anomaly.Filter, string) {
	f := anomaly.Filter{Node: -1, Limit: anomalyEventLimit}
	if v := q.Get("job"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil || id == 0 {
			return f, "bad job " + strconv.Quote(v)
		}
		f.Job = id
	}
	if v := q.Get("node"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return f, "bad node " + strconv.Quote(v)
		}
		f.Node = n
	}
	f.Rule = q.Get("rule")
	switch t := q.Get("type"); t {
	case "", anomaly.EventFire, anomaly.EventResolve:
		f.Type = t
	default:
		return f, "bad type " + strconv.Quote(t) + " (want fire or resolve)"
	}
	if v := q.Get("severity"); v != "" {
		lvl := anomaly.SeverityLevel(v)
		if lvl < 0 {
			return f, "bad severity " + strconv.Quote(v)
		}
		f.MinSeverity = lvl
	}
	if v := q.Get("since"); v != "" {
		u, err := strconv.ParseInt(v, 10, 64)
		if err != nil || u < 0 {
			return f, "bad since " + strconv.Quote(v)
		}
		f.SinceUnix = u
	}
	if v := q.Get("since_seq"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return f, "bad since_seq " + strconv.Quote(v)
		}
		f.SinceSeq = u
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > anomalyEventLimit {
			return f, "bad limit " + strconv.Quote(v) + " (1.." + strconv.Itoa(anomalyEventLimit) + ")"
		}
		f.Limit = n
	}
	return f, ""
}

func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	if s.anom == nil {
		s.refuse(w, http.StatusNotImplemented, "", 0, "anomaly detection is not enabled (-anomaly)")
		return
	}
	q := r.URL.Query()
	f, badParam := parseAnomalyFilter(q)
	if badParam != "" {
		s.refuse(w, http.StatusBadRequest, "", 0, "%s", badParam)
		return
	}
	switch {
	case q.Get("fingerprint") == "1":
		if f.Job == 0 {
			s.refuse(w, http.StatusBadRequest, "", 0, "fingerprint=1 needs job=<id>")
			return
		}
		fp, ok := s.anom.Fingerprint(f.Job)
		if !ok || fp.N == 0 {
			s.refuse(w, http.StatusNotFound, "", 0, "no fingerprint for job %d", f.Job)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"job": f.Job, "fingerprint": fp})
	case q.Get("active") == "1":
		alerts := s.anom.Active()
		if f.Job != 0 {
			kept := alerts[:0]
			for _, a := range alerts {
				if a.Job == f.Job {
					kept = append(kept, a)
				}
			}
			alerts = kept
		}
		if alerts == nil {
			alerts = []anomaly.Alert{}
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"active": alerts})
	case q.Get("stream") == "1":
		s.streamAnomalies(w, r, f)
	default:
		events := s.anom.Events(f)
		s.writeJSON(w, http.StatusOK, map[string]any{"events": events, "count": len(events)})
	}
}

// streamAnomalies serves the live NDJSON event feed: first the ring
// events the filter selects (oldest-first, so since_seq cursors resume
// without a gap), then every matching transition as it happens, until
// the client disconnects.
func (s *Server) streamAnomalies(w http.ResponseWriter, r *http.Request, f anomaly.Filter) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.refuse(w, http.StatusInternalServerError, "", 0, "response writer cannot stream")
		return
	}
	// Subscribe before the backlog read so no event falls between them;
	// duplicates across the seam are filtered by sequence number below.
	subID, ch := s.anom.Subscribe(0)
	defer s.anom.Unsubscribe(subID)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	backlog := s.anom.Events(f) // newest-first
	var lastSeq uint64
	for i := len(backlog) - 1; i >= 0; i-- {
		if err := enc.Encode(&backlog[i]); err != nil {
			return
		}
		lastSeq = backlog[i].Seq
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			if ev.Seq <= lastSeq || !f.Match(&ev) {
				continue
			}
			if err := enc.Encode(&ev); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// anomalyReadyz is the /readyz detector block.
func (s *Server) anomalyReadyz() map[string]any {
	st := s.anom.Snapshot()
	return map[string]any{
		"enabled":          true,
		"rules":            st.Rules,
		"jobs":             st.Jobs,
		"active_alerts":    st.Active,
		"fired":            st.Fired,
		"resolved":         st.Resolved,
		"delivering":       s.anom.Delivering(),
		"last_sample_unix": st.LastSampleUnix,
		"sinks":            s.anom.SinkHealths(),
	}
}

// collectAnomaly emits the powserved_anomaly_* (detector throughput)
// and powserved_alert_* (alert pipeline) families. Per-family loops
// keep same-name series contiguous, as the exposition format requires.
func (s *Server) collectAnomaly(e *obs.Exposition) {
	st := s.anom.Snapshot()
	e.Gauge("powserved_anomaly_enabled", 1)
	e.Gauge("powserved_anomaly_rules", float64(st.Rules))
	e.Gauge("powserved_anomaly_jobs", float64(st.Jobs))
	e.Counter("powserved_anomaly_samples_total", float64(st.Samples))
	e.Counter("powserved_anomaly_batches_total", float64(st.Batches))
	e.Counter("powserved_anomaly_evals_total", float64(st.Evals))
	e.Gauge("powserved_anomaly_last_sample_unix", float64(st.LastSampleUnix))

	rules := s.anom.Rules()
	for i := range rules {
		e.CounterL("powserved_alert_fired_total", "rule", rules[i].Name, float64(st.FiredByRule[i]))
	}
	for i := range rules {
		e.CounterL("powserved_alert_resolved_total", "rule", rules[i].Name, float64(st.ResolvedByRule[i]))
	}
	e.Gauge("powserved_alert_active", float64(st.Active))
	e.Counter("powserved_alert_suppressed_total", float64(st.Suppressed))
	e.Counter("powserved_alert_events_total", float64(st.Events))
	e.Counter("powserved_alert_events_evicted_total", float64(st.EventsEvicted))
	e.Gauge("powserved_alert_delivering", float64(b2i(s.anom.Delivering())))

	sinks := s.anom.SinkHealths()
	for i := range sinks {
		e.GaugeL("powserved_alert_sink_healthy", "sink", sinks[i].Name, float64(b2i(sinks[i].Healthy)))
	}
	for i := range sinks {
		e.CounterL("powserved_alert_sink_delivered_total", "sink", sinks[i].Name, float64(sinks[i].Delivered))
	}
	for i := range sinks {
		e.CounterL("powserved_alert_sink_errors_total", "sink", sinks[i].Name, float64(sinks[i].Errors))
	}
	for i := range sinks {
		e.CounterL("powserved_alert_sink_retries_total", "sink", sinks[i].Name, float64(sinks[i].Retries))
	}
	for i := range sinks {
		e.CounterL("powserved_alert_sink_dropped_total", "sink", sinks[i].Name, float64(sinks[i].Dropped))
	}
	for i := range sinks {
		e.GaugeL("powserved_alert_sink_queued", "sink", sinks[i].Name, float64(sinks[i].Queued))
	}
}
