package trace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hpcpower/internal/units"
)

// PowerSample is the wire record of the online telemetry path: one
// per-node per-minute RAPL power reading, as pushed by a monitoring agent
// to the serving layer (cmd/powserved). It is the live counterpart of one
// NodeSeries entry — flattened, self-describing, and JSON-friendly so
// agents in any language can produce it.
type PowerSample struct {
	Node   int     `json:"node"` // cluster-wide node index
	JobID  uint64  `json:"job"`  // job occupying the node (0 = idle/system)
	Unix   int64   `json:"t"`    // sample time, seconds since epoch
	PowerW float64 `json:"w"`    // average watts over the sampling interval
}

// Validate reports the first structural problem with the sample, if any.
func (s PowerSample) Validate() error {
	switch {
	case s.Node < 0:
		return fmt.Errorf("trace: sample has negative node %d", s.Node)
	case s.Unix <= 0:
		return fmt.Errorf("trace: sample has non-positive time %d", s.Unix)
	case s.PowerW < 0:
		return fmt.Errorf("trace: sample has negative power %v", s.PowerW)
	case math.IsNaN(s.PowerW) || math.IsInf(s.PowerW, 1):
		// NaN is not < 0, so it needs a case of its own: it would poison
		// the moments' extremes and every sort downstream, and the record
		// codec cannot write it.
		return fmt.Errorf("trace: sample has non-finite power %v", s.PowerW)
	}
	return nil
}

// SampleBatch is the ingest request body of POST /v1/samples.
//
// AgentID and Seq are the delivery identity used for idempotent ingest:
// an agent stamps every batch it ships with its own ID and a monotonic
// sequence number starting at 1, and the server deduplicates on
// (AgentID, Seq) so an at-least-once transport never double-counts a
// sample into the job analytics. An empty AgentID opts out of
// deduplication — anonymous pushes keep working unchanged.
//
// Redelivery marks a batch that is being re-sent after a delivery
// failure (the first attempt may or may not have reached the server);
// the server counts redeliveries so operators can see transport churn.
type SampleBatch struct {
	AgentID    string        `json:"agent,omitempty"`
	Seq        uint64        `json:"seq,omitempty"`
	Redelivery bool          `json:"redelivery,omitempty"`
	Samples    []PowerSample `json:"samples"`
}

// Validate checks the delivery stamp and every sample in the batch.
func (b SampleBatch) Validate() error {
	if b.AgentID != "" && b.Seq == 0 {
		return fmt.Errorf("trace: batch from agent %q has no sequence number", b.AgentID)
	}
	if b.AgentID == "" && b.Seq != 0 {
		return fmt.Errorf("trace: batch has sequence %d but no agent id", b.Seq)
	}
	for i, s := range b.Samples {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
	}
	return nil
}

// FlattenSeries converts a dataset's time-resolved node series into the
// wire samples an agent would have pushed live: job by job, and within a
// job minute by minute, each minute's readings in node order, as the
// job's nodes report them. Per-job node indices are offset by a running
// base so different jobs do not collide on node 0 (a dataset does not
// record physical node placement).
func FlattenSeries(d *Dataset) []PowerSample {
	var out []PowerSample
	base := 0
	for _, id := range sortedSeriesIDs(d) {
		series := d.Series[id]
		for i, more := 0, true; more; i++ {
			more = false
			for _, ns := range series {
				if i >= len(ns.Power) {
					continue
				}
				more = true
				out = append(out, PowerSample{
					Node:   base + ns.Node,
					JobID:  ns.JobID,
					Unix:   ns.Start.Add(sampleOffset(i)).Unix(),
					PowerW: ns.Power[i],
				})
			}
		}
		base += len(series)
	}
	return out
}

func sampleOffset(i int) time.Duration {
	return time.Duration(i) * units.SampleInterval
}

func sortedSeriesIDs(d *Dataset) []uint64 {
	ids := make([]uint64, 0, len(d.Series))
	for id := range d.Series {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}
