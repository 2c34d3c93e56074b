package serve

import (
	"net/http"
	"strconv"
	"time"

	"hpcpower/internal/live"
	"hpcpower/internal/obs"
)

// Block-store query surface and flush plumbing.
//
//	GET  /v1/query/range?node=&from=&to=[&step=]  merged head+block range read
//	GET  /v1/query/nodes                          all known nodes + flush frontier
//	GET  /v1/query/distribution?from=&to=         sample-power distribution (ECDF reduction)
//	POST /v1/admin/flush                          seal complete windows + compact now
//
// The range read merges transparently: timestamps below the flush
// frontier come from compressed block files, at or above it from the hot
// rings — callers see one seamless series regardless of where the data
// lives.

// hasBlocks reports whether the store has a block store attached; the
// query endpoints degrade gracefully (head-only) without one, but
// /v1/admin/flush requires it.
func (s *Server) hasBlocks() bool { return s.store.Blocks() != nil }

func parseUnixParam(r *http.Request, name string) (int64, bool, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, false, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	return n, true, err
}

// parseWindow reads a read's from= and to= Unix bounds (absent is 0, the
// store's "unbounded") and answers the 400 itself when one is malformed.
func (s *Server) parseWindow(w http.ResponseWriter, r *http.Request) (from, to int64, ok bool) {
	from, _, err := parseUnixParam(r, "from")
	if err != nil {
		s.refuse(w, http.StatusBadRequest, "", 0, "bad from: %v", err)
		return 0, 0, false
	}
	to, _, err = parseUnixParam(r, "to")
	if err != nil {
		s.refuse(w, http.StatusBadRequest, "", 0, "bad to: %v", err)
		return 0, 0, false
	}
	return from, to, true
}

func (s *Server) handleQueryRange(w http.ResponseWriter, r *http.Request) {
	node, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil || node < 0 {
		s.refuse(w, http.StatusBadRequest, "", 0, "bad node %q", r.URL.Query().Get("node"))
		return
	}
	from, to, ok := s.parseWindow(w, r)
	if !ok {
		return
	}
	step, hasStep, err := parseUnixParam(r, "step")
	if err != nil || (hasStep && step <= 0) {
		s.refuse(w, http.StatusBadRequest, "", 0, "bad step %q", r.URL.Query().Get("step"))
		return
	}
	frontier := s.store.BlockFrontier()
	if hasStep {
		aggs, degraded, err := s.store.QueryAgg(node, from, to, step)
		if err != nil {
			s.refuse(w, http.StatusInternalServerError, "", 0, "aggregate query: %v", err)
			return
		}
		s.metrics.valuesScanned.With("query_range").Add(int64(len(aggs)))
		s.writeResponse(w, &rangeResponse{node: node, step: step, frontier: frontier, degraded: degraded, aggs: aggs})
		return
	}
	points, degraded, err := s.store.QueryRange(node, from, to)
	if err != nil {
		s.refuse(w, http.StatusInternalServerError, "", 0, "range query: %v", err)
		return
	}
	s.metrics.valuesScanned.With("query_range").Add(int64(len(points)))
	s.writeResponse(w, &rangeResponse{node: node, frontier: frontier, degraded: degraded, points: points})
}

func (s *Server) handleQueryNodes(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"nodes":    s.store.NodeIDs(),
		"frontier": s.store.BlockFrontier(),
	})
}

func (s *Server) handleQueryDistribution(w http.ResponseWriter, r *http.Request) {
	from, to, ok := s.parseWindow(w, r)
	if !ok {
		return
	}
	dist, degraded, err := live.SamplePower(s.store, from, to)
	if err != nil {
		s.refuse(w, http.StatusInternalServerError, "", 0, "distribution scan: %v", err)
		return
	}
	s.metrics.valuesScanned.With("query_distribution").Add(dist.N)
	s.writeResponse(w, &distResponse{dist: dist, frontier: s.store.BlockFrontier(), degraded: degraded})
}

// flushResponse is the body of POST /v1/admin/flush.
type flushResponse struct {
	Sealed    int   `json:"sealed"`
	Compacted int   `json:"compacted"`
	Frontier  int64 `json:"frontier"`
}

// handleAdminFlush seals every window that is complete as of now and
// compacts rollups synchronously — the manual counterpart of the
// background flush loop, used after historical replays (the smoke test)
// and in operational drills.
func (s *Server) handleAdminFlush(w http.ResponseWriter, r *http.Request) {
	bs := s.store.Blocks()
	if bs == nil {
		s.refuse(w, http.StatusServiceUnavailable, "", 0, "no block store attached")
		return
	}
	start := time.Now()
	sealed, err := s.store.FlushBlocks(time.Now().Unix())
	if err != nil {
		s.refuse(w, http.StatusInternalServerError, "", 0, "flush: %v", err)
		return
	}
	s.metrics.stage(stageBlockFlush, time.Since(start), obs.TraceEvent{})
	compacted, err := bs.CompactPending()
	if err != nil {
		s.refuse(w, http.StatusInternalServerError, "", 0, "compact: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, flushResponse{
		Sealed: sealed, Compacted: compacted, Frontier: s.store.BlockFrontier(),
	})
}

// scrubResponse is the body of POST /v1/admin/scrub.
type scrubResponse struct {
	Blocks *scrubBlocksReport `json:"blocks,omitempty"`
	WAL    *scrubWALReport    `json:"wal,omitempty"`
}

type scrubBlocksReport struct {
	Scanned     int     `json:"scanned"`
	Chunks      int     `json:"chunks"`
	Corrupt     int     `json:"corrupt"`
	Quarantined int     `json:"quarantined"`
	Seconds     float64 `json:"seconds"`
}

type scrubWALReport struct {
	SegmentsScanned int    `json:"segments_scanned"`
	Corrupt         int    `json:"corrupt"`
	Error           string `json:"error,omitempty"`
}

// handleAdminScrub runs one synchronous integrity pass: every cataloged
// block file is CRC re-verified (corrupt ones quarantined on the spot),
// and the WAL's cold segments are re-scanned (detection only — a WAL
// segment cannot be quarantined without breaking LSN contiguity, so
// damage there is reported for the operator and left for recovery's
// torn-tail handling). The background scrubber runs the same block pass
// on its own cadence; this endpoint exists for drills and post-incident
// checks.
func (s *Server) handleAdminScrub(w http.ResponseWriter, r *http.Request) {
	var resp scrubResponse
	if bs := s.store.Blocks(); bs != nil {
		rep := bs.Scrub()
		resp.Blocks = &scrubBlocksReport{
			Scanned:     rep.Blocks,
			Chunks:      rep.Chunks,
			Corrupt:     rep.Corrupt,
			Quarantined: rep.Quarantined,
			Seconds:     rep.Duration.Seconds(),
		}
	}
	if s.dur != nil && s.dur.log != nil {
		scanned, corrupt, err := s.dur.log.ScrubCold()
		wr := &scrubWALReport{SegmentsScanned: scanned, Corrupt: corrupt}
		if err != nil {
			wr.Error = err.Error()
		}
		resp.WAL = wr
	}
	if resp.Blocks == nil && resp.WAL == nil {
		s.refuse(w, http.StatusServiceUnavailable, "", 0, "nothing to scrub: no block store or WAL attached")
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// startBlockLoop launches the background flush loop (and registers the
// block gauges) when a block store is attached. The loop seals windows a
// grace period behind wall clock, so stragglers within the grace window
// still land in their block.
func (s *Server) startBlockLoop() {
	if !s.hasBlocks() {
		return
	}
	s.metrics.reg.AddCollector(s.collectBlocks)
	if s.cfg.BlockFlushInterval <= 0 {
		return
	}
	grace := s.cfg.BlockFlushGrace
	if grace <= 0 {
		grace = 5 * time.Minute
	}
	s.flushWG.Add(1)
	go func() {
		defer s.flushWG.Done()
		t := time.NewTicker(s.cfg.BlockFlushInterval)
		defer t.Stop()
		for {
			select {
			case <-s.flushStop:
				return
			case <-t.C:
				if !s.ready.Load() || s.draining.Load() {
					continue
				}
				start := time.Now()
				if _, err := s.store.FlushBlocks(time.Now().Add(-grace).Unix()); err != nil {
					s.metrics.logger.Warn("block flush failed", "err", err)
					continue
				}
				s.metrics.stage(stageBlockFlush, time.Since(start), obs.TraceEvent{})
			}
		}
	}()
}

// collectBlocks emits the block-store gauges on every scrape.
func (s *Server) collectBlocks(e *obs.Exposition) {
	bs := s.store.Blocks()
	if bs == nil {
		return
	}
	st := bs.Stats()
	emit := func(label string, blocks int, bytes, points, samples int64) {
		e.GaugeL("powserved_block_files", "tier", label, float64(blocks))
		e.GaugeL("powserved_block_bytes", "tier", label, float64(bytes))
		e.GaugeL("powserved_block_points", "tier", label, float64(points))
		e.GaugeL("powserved_block_samples", "tier", label, float64(samples))
	}
	emit("raw", st.Raw.Blocks, st.Raw.Bytes, st.Raw.Points, st.Raw.Samples)
	emit("5m", st.Rollup5m.Blocks, st.Rollup5m.Bytes, st.Rollup5m.Points, st.Rollup5m.Samples)
	emit("1h", st.Rollup1h.Blocks, st.Rollup1h.Bytes, st.Rollup1h.Points, st.Rollup1h.Samples)
	e.Gauge("powserved_block_bytes_per_sample", st.BytesPerSample)
	e.Gauge("powserved_block_frontier_unix", float64(s.store.BlockFrontier()))
	e.Counter("powserved_block_flushes_total", float64(st.Flushes))
	e.Counter("powserved_block_compactions_total", float64(st.Compactions))
	e.Counter("powserved_block_retention_unlinked_total", float64(st.RetentionUnlinked))
	e.Counter("powserved_scrub_runs_total", float64(st.ScrubRuns))
	e.Gauge("powserved_scrub_last_unix", float64(st.ScrubLastUnix))
	e.Counter("powserved_scrub_corrupt_total", float64(st.ScrubCorrupt))
	e.Counter("powserved_quarantine_renamed_total", float64(st.Quarantined))
	e.Gauge("powserved_quarantine_files", float64(st.QuarantineFiles))
	e.Help("powserved_distribution_blocks_total", "Raw blocks fleet-wide distribution pulls visited, by path: table added the block's (value, count) table, edge read a block the window cuts (the one its start cuts by complement: the table added, the values before the start decoded and taken off; otherwise decoded up to the window's end), no_table decoded a block the window covers that carries no table.")
	e.CounterL("powserved_distribution_blocks_total", "path", "table", float64(st.DistTable))
	e.CounterL("powserved_distribution_blocks_total", "path", "edge", float64(st.DistEdge))
	e.CounterL("powserved_distribution_blocks_total", "path", "no_table", float64(st.DistNoTable))
}
