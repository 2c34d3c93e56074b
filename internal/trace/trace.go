// Package trace defines the power-trace data model of the study and its
// on-disk formats.
//
// The paper open-sourced two kinds of data (§2.2):
//
//   - job-level records: batch-system accounting (user, size, submit/start/
//     end, requested walltime) joined with power characteristics averaged
//     over the job's runtime and nodes; and
//   - time-resolved records: per-node, per-minute RAPL power samples for
//     instrumented jobs, used for the temporal and spatial analyses.
//
// This package provides those records, the whole-dataset container, and
// CSV/JSONL serialization so a synthesized dataset can be released and
// re-loaded exactly like the Zenodo original.
package trace

import (
	"fmt"
	"sort"
	"time"

	"hpcpower/internal/units"
)

// Job is one execution instance of an application: the unit of analysis in
// the paper. Different runs of the same application are different jobs.
type Job struct {
	ID      uint64        // unique job identifier
	User    string        // anonymized user identifier ("u042")
	App     string        // application name parsed from the scheduler log
	Nodes   int           // number of exclusively allocated compute nodes
	Submit  time.Time     // submission to the batch queue
	Start   time.Time     // execution start
	End     time.Time     // execution end
	ReqWall time.Duration // requested wall time (available pre-execution)

	// AvgPowerPerNode is the paper's central metric: power averaged over
	// the job's entire runtime and all of its nodes (PKG+DRAM RAPL).
	AvgPowerPerNode units.Watts
	// Energy is the total energy consumed by the job across all nodes.
	Energy units.Joules

	// Time-resolved characterization, present when Instrumented is true
	// (the paper logged per-node counters for a one-month subset).
	Instrumented bool
	// TemporalCVPct is the std of the job's node-averaged power over time,
	// as a percentage of its mean (paper: ~11% on average).
	TemporalCVPct float64
	// PeakOvershootPct is (peak − mean)/mean of the job's power in percent
	// (Fig. 6/7a; paper: ~10-12% on average).
	PeakOvershootPct float64
	// PctTimeAboveMean10 is the percentage of runtime spent with power more
	// than 10% above the job mean (Fig. 6/7b).
	PctTimeAboveMean10 float64
	// AvgSpatialSpreadW is the mean over time of (max node power − min node
	// power) in watts (Fig. 8/9a; paper: ~20 W).
	AvgSpatialSpreadW float64
	// SpatialSpreadPct is AvgSpatialSpreadW as a percentage of
	// AvgPowerPerNode (Fig. 9b; paper: ~15%).
	SpatialSpreadPct float64
	// PctTimeSpreadAboveAvg is the percentage of runtime during which the
	// instantaneous spatial spread exceeds the job's average spread (Fig. 9c).
	PctTimeSpreadAboveAvg float64
	// NodeEnergySpreadPct is (max node energy − min node energy)/min node
	// energy in percent (Fig. 10; paper: 20% of jobs above 15%).
	NodeEnergySpreadPct float64
}

// Runtime returns the job's execution time.
func (j *Job) Runtime() time.Duration { return j.End.Sub(j.Start) }

// RuntimeMinutes returns the job runtime as a whole number of telemetry
// samples (at least one).
func (j *Job) RuntimeMinutes() int { return units.Minutes(j.Runtime()) }

// NodeHours returns the node-hours charged to the job.
func (j *Job) NodeHours() units.NodeHours {
	return units.NodeHoursOf(j.Nodes, j.Runtime())
}

// Validate reports the first structural problem with the record, if any.
func (j *Job) Validate() error {
	switch {
	case j.Nodes <= 0:
		return fmt.Errorf("trace: job %d has %d nodes", j.ID, j.Nodes)
	case j.End.Before(j.Start):
		return fmt.Errorf("trace: job %d ends before it starts", j.ID)
	case j.Start.Before(j.Submit):
		return fmt.Errorf("trace: job %d starts before submission", j.ID)
	case j.ReqWall <= 0:
		return fmt.Errorf("trace: job %d has non-positive requested walltime", j.ID)
	case j.AvgPowerPerNode < 0:
		return fmt.Errorf("trace: job %d has negative power", j.ID)
	case j.Energy < 0:
		return fmt.Errorf("trace: job %d has negative energy", j.ID)
	}
	return nil
}

// NodeSeries is the time-resolved power trace of one node of one job:
// one averaged sample per minute, as reported by RAPL (PKG+DRAM).
type NodeSeries struct {
	JobID uint64
	Node  int       // node index within the job, 0-based
	Start time.Time // time of the first sample
	Power []float64 // watts, one entry per minute
}

// SystemSample is one minute of whole-cluster telemetry: how many nodes
// were executing jobs, and the total power drawn by all compute nodes.
// Figs. 1 and 2 are drawn from this series.
type SystemSample struct {
	Time        time.Time
	ActiveNodes int
	TotalPowerW float64
}

// Meta describes the system a dataset was collected on.
type Meta struct {
	System     string    // "Emmy" or "Meggie"
	TotalNodes int       // compute nodes in the cluster
	NodeTDPW   float64   // node-level TDP in watts (CPU+DRAM)
	Start      time.Time // observation window start
	End        time.Time // observation window end
	Seed       uint64    // generator seed (0 for real data)
}

// Dataset is a complete released trace: metadata, the job table, the
// cluster-level minute series, and time-resolved node series for the
// instrumented subset of jobs.
type Dataset struct {
	Meta   Meta
	Jobs   []Job
	System []SystemSample
	// Series holds per-node series for instrumented jobs, keyed by job ID.
	Series map[uint64][]NodeSeries
}

// Job returns the job with the given ID, or nil if absent.
func (d *Dataset) Job(id uint64) *Job {
	for i := range d.Jobs {
		if d.Jobs[i].ID == id {
			return &d.Jobs[i]
		}
	}
	return nil
}

// SortJobs orders the job table by start time, then ID — the order
// accounting logs are conventionally released in.
func (d *Dataset) SortJobs() {
	sort.Slice(d.Jobs, func(a, b int) bool {
		ja, jb := &d.Jobs[a], &d.Jobs[b]
		if !ja.Start.Equal(jb.Start) {
			return ja.Start.Before(jb.Start)
		}
		return ja.ID < jb.ID
	})
}

// Validate checks every job record and dataset-level invariants.
func (d *Dataset) Validate() error {
	if d.Meta.TotalNodes <= 0 {
		return fmt.Errorf("trace: dataset has %d total nodes", d.Meta.TotalNodes)
	}
	if d.Meta.NodeTDPW <= 0 {
		return fmt.Errorf("trace: dataset has TDP %v", d.Meta.NodeTDPW)
	}
	seen := make(map[uint64]bool, len(d.Jobs))
	for i := range d.Jobs {
		j := &d.Jobs[i]
		if err := j.Validate(); err != nil {
			return err
		}
		if seen[j.ID] {
			return fmt.Errorf("trace: duplicate job id %d", j.ID)
		}
		seen[j.ID] = true
		if j.Nodes > d.Meta.TotalNodes {
			return fmt.Errorf("trace: job %d uses %d of %d nodes", j.ID, j.Nodes, d.Meta.TotalNodes)
		}
	}
	for id, series := range d.Series {
		if !seen[id] {
			return fmt.Errorf("trace: series for unknown job %d", id)
		}
		for _, ns := range series {
			if ns.JobID != id {
				return fmt.Errorf("trace: series keyed %d but tagged %d", id, ns.JobID)
			}
		}
	}
	return nil
}

// Users returns the distinct user identifiers in the job table.
func (d *Dataset) Users() []string {
	set := map[string]bool{}
	for i := range d.Jobs {
		set[d.Jobs[i].User] = true
	}
	users := make([]string, 0, len(set))
	for u := range set {
		users = append(users, u)
	}
	sort.Strings(users)
	return users
}

// Apps returns the distinct application names in the job table.
func (d *Dataset) Apps() []string {
	set := map[string]bool{}
	for i := range d.Jobs {
		set[d.Jobs[i].App] = true
	}
	apps := make([]string, 0, len(set))
	for a := range set {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	return apps
}
