// Package live assembles core.LiveInput — the feed of the paper's live
// distribution/overshoot analytics — from either a running powserved
// (Pull, over the query API) or an in-process replay of a dataset
// through the same tsdb+block machinery (Replay, the control path).
//
// Both producers run identical reductions over identical sample sets,
// so their AnalyzeLive reports are byte-identical: the parity oracle of
// scripts/smoke.sh's block pass, proving the live store reproduces the
// CSV-derived numbers exactly.
package live

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"hpcpower/internal/block"
	"hpcpower/internal/core"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
	"hpcpower/internal/tsdb"
)

// Pull assembles the live input from a running powserved instance: the
// job list and per-job characterizations from /v1/jobs, and the
// sample-power distribution — reduced server-side over blocks + head —
// from /v1/query/distribution.
func Pull(baseURL, system string, nodeTDPW float64) (core.LiveInput, error) {
	base := strings.TrimSuffix(baseURL, "/")
	client := &http.Client{Timeout: 2 * time.Minute}
	in := core.LiveInput{System: system, NodeTDPW: nodeTDPW}

	var jl struct {
		Jobs []uint64 `json:"jobs"`
	}
	if err := getJSON(client, base+"/v1/jobs", &jl); err != nil {
		return in, err
	}
	for _, id := range jl.Jobs {
		var j core.LiveJob
		if err := getJSON(client, fmt.Sprintf("%s/v1/jobs/%d/power", base, id), &j); err != nil {
			return in, err
		}
		in.Jobs = append(in.Jobs, j)
	}
	var dr struct {
		Distribution core.LiveDist `json:"distribution"`
		Frontier     int64         `json:"frontier"`
	}
	if err := getJSON(client, base+"/v1/query/distribution", &dr); err != nil {
		return in, err
	}
	in.SamplePower = dr.Distribution
	in.Frontier = dr.Frontier
	return in, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("live: GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("live: GET %s: decoding: %w", url, err)
	}
	return nil
}

// replayBatch slices the flattened sample stream as the loader does.
// Boundaries do not affect the result: appends are order-preserving.
const replayBatch = 512

// Replay drives a dataset's flattened sample stream through an
// in-process tsdb.Store with a temporary block store attached, flushes
// and compacts, and collects the live input — the same code path a
// powserved instance runs, minus HTTP. ringLen must be the -ring of the
// powserved instance being compared against: the sample distribution
// covers exactly the retained points.
func Replay(ds *trace.Dataset, system string, nodeTDPW float64, ringLen int) (core.LiveInput, error) {
	samples := trace.FlattenSeries(ds)
	if len(samples) == 0 {
		return core.LiveInput{}, fmt.Errorf("live: dataset has no time-resolved series")
	}
	store := tsdb.New(tsdb.Config{RingLen: ringLen})
	dir, err := os.MkdirTemp("", "powblocks-control-*")
	if err != nil {
		return core.LiveInput{}, err
	}
	defer os.RemoveAll(dir)
	bs, err := block.Open(block.Config{Dir: dir})
	if err != nil {
		return core.LiveInput{}, err
	}
	store.AttachBlocks(bs)
	for off := 0; off < len(samples); off += replayBatch {
		end := off + replayBatch
		if end > len(samples) {
			end = len(samples)
		}
		if err := store.Append(samples[off:end]); err != nil {
			return core.LiveInput{}, err
		}
	}
	if _, err := store.FlushBlocks(time.Now().Unix()); err != nil {
		return core.LiveInput{}, err
	}
	if _, err := bs.CompactPending(); err != nil {
		return core.LiveInput{}, err
	}
	return Collect(store, system, nodeTDPW)
}

// Collect reduces a live store to the analytics input: per-job stats in
// ascending job order plus the merged sample-power distribution — the
// in-process equivalent of what Pull fetches over HTTP.
func Collect(store *tsdb.Store, system string, nodeTDPW float64) (core.LiveInput, error) {
	in := core.LiveInput{System: system, NodeTDPW: nodeTDPW, Frontier: store.BlockFrontier()}
	for _, id := range store.Jobs() {
		st, ok := store.JobPower(id)
		if !ok {
			continue
		}
		in.Jobs = append(in.Jobs, core.LiveJob{
			JobID:             st.JobID,
			Samples:           st.Samples,
			Nodes:             st.Nodes,
			MeanW:             st.MeanW,
			StdW:              st.StdW,
			MinW:              st.MinW,
			MaxW:              st.MaxW,
			PeakOvershootPct:  st.PeakOvershootPct,
			AvgSpatialSpreadW: st.AvgSpatialSpreadW,
			SpatialSpreadPct:  st.SpatialSpreadPct,
		})
	}
	var err error
	in.SamplePower, _, err = SamplePower(store, 0, 0)
	return in, err
}

// SamplePower reduces every retained raw sample of every node with
// from ≤ t ≤ to (to ≤ 0 unbounded), blocks and head, to its
// distribution — the one reduction behind both GET
// /v1/query/distribution and Collect, which is what keeps powanalyze
// -source and -live-control byte-identical. The samples are counted
// (tsdb.Store.TallyValues: the value tables of the blocks the window
// covers, edge blocks and the head decoded into the tally) and reduced
// by core.DistFromCounts; values that repeat too little to count are
// gathered into a pooled buffer and sorted there instead, with the same
// answer. A warmed pull allocates little beyond the LiveDist it
// returns. degraded reports a block quarantined mid-scan.
func SamplePower(store *tsdb.Store, from, to int64) (dist core.LiveDist, degraded bool, err error) {
	tally := stats.GetTally()
	defer stats.PutTally(tally)
	counted, degraded, err := store.TallyValues(tally, from, to)
	if err != nil {
		return core.LiveDist{}, degraded, err
	}
	if counted {
		return core.DistFromCounts(tally.Sorted()), degraded, nil
	}
	buf := stats.GetFloats()
	defer stats.PutFloats(buf)
	var deg bool
	*buf, deg, err = store.AppendValuesMerged((*buf)[:0], nil, from, to)
	if err != nil {
		return core.LiveDist{}, degraded || deg, err
	}
	return core.DistFromValues(*buf), degraded || deg, nil
}
