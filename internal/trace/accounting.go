package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// This file implements an sacct-style accounting-log interchange format.
// The study joins telemetry with the batch systems' accounting records
// (Torque on Emmy, Slurm on Meggie, §2.2); this format carries exactly
// the fields those records contribute, one pipe-separated line per job —
// the shape of `sacct -P` output, which downstream HPC tooling already
// speaks.

// sacctHeader is the column schema of the accounting export.
var sacctHeader = []string{
	"JobID", "User", "JobName", "Submit", "Start", "End",
	"Timelimit", "NNodes", "State",
}

const sacctTimeLayout = "2006-01-02T15:04:05"

// WriteAccounting writes the job table as a pipe-separated sacct-style
// accounting log. Power fields are not part of accounting records; use
// jobs.csv for the joined release.
func (d *Dataset) WriteAccounting(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, strings.Join(sacctHeader, "|")); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for i := range d.Jobs {
		j := &d.Jobs[i]
		state := "COMPLETED"
		if j.Runtime() >= j.ReqWall {
			state = "TIMEOUT" // killed at the walltime limit
		}
		_, err := fmt.Fprintf(bw, "%d|%s|%s|%s|%s|%s|%s|%d|%s\n",
			j.ID, j.User, j.App,
			j.Submit.UTC().Format(sacctTimeLayout),
			j.Start.UTC().Format(sacctTimeLayout),
			j.End.UTC().Format(sacctTimeLayout),
			formatTimelimit(j.ReqWall),
			j.Nodes, state,
		)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// ReadAccounting parses an sacct-style log, appending jobs to d.Jobs.
// Power fields are zero (accounting records carry none); callers join
// them from telemetry.
func (d *Dataset) ReadAccounting(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 {
			if text != strings.Join(sacctHeader, "|") {
				return fmt.Errorf("trace: accounting header mismatch: %q", text)
			}
			continue
		}
		fields := strings.Split(text, "|")
		if len(fields) != len(sacctHeader) {
			return fmt.Errorf("trace: accounting line %d has %d fields, want %d", line, len(fields), len(sacctHeader))
		}
		j, err := parseAccountingLine(fields)
		if err != nil {
			return fmt.Errorf("trace: accounting line %d: %w", line, err)
		}
		d.Jobs = append(d.Jobs, j)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

func parseAccountingLine(fields []string) (Job, error) {
	var j Job
	id, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return j, fmt.Errorf("bad JobID %q: %w", fields[0], err)
	}
	j.ID = id
	j.User = fields[1]
	j.App = fields[2]
	if j.Submit, err = time.ParseInLocation(sacctTimeLayout, fields[3], time.UTC); err != nil {
		return j, fmt.Errorf("bad Submit: %w", err)
	}
	if j.Start, err = time.ParseInLocation(sacctTimeLayout, fields[4], time.UTC); err != nil {
		return j, fmt.Errorf("bad Start: %w", err)
	}
	if j.End, err = time.ParseInLocation(sacctTimeLayout, fields[5], time.UTC); err != nil {
		return j, fmt.Errorf("bad End: %w", err)
	}
	if j.ReqWall, err = parseTimelimit(fields[6]); err != nil {
		return j, fmt.Errorf("bad Timelimit: %w", err)
	}
	nodes, err := strconv.Atoi(fields[7])
	if err != nil {
		return j, fmt.Errorf("bad NNodes %q: %w", fields[7], err)
	}
	j.Nodes = nodes
	switch fields[8] {
	case "COMPLETED", "TIMEOUT", "FAILED", "CANCELLED":
	default:
		return j, fmt.Errorf("unknown State %q", fields[8])
	}
	return j, nil
}

// formatTimelimit renders a duration in Slurm's D-HH:MM:SS / HH:MM:SS form.
func formatTimelimit(d time.Duration) string {
	total := int64(d / time.Second)
	days := total / 86400
	h := (total % 86400) / 3600
	m := (total % 3600) / 60
	s := total % 60
	if days > 0 {
		return fmt.Sprintf("%d-%02d:%02d:%02d", days, h, m, s)
	}
	return fmt.Sprintf("%02d:%02d:%02d", h, m, s)
}

// parseTimelimit parses D-HH:MM:SS, HH:MM:SS, or MM:SS.
func parseTimelimit(s string) (time.Duration, error) {
	var days int64
	rest := s
	if i := strings.IndexByte(s, '-'); i >= 0 {
		d, err := strconv.ParseInt(s[:i], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad day part %q", s)
		}
		days = d
		rest = s[i+1:]
	}
	parts := strings.Split(rest, ":")
	var h, m, sec int64
	var err error
	switch len(parts) {
	case 3:
		if h, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
			return 0, fmt.Errorf("bad hours %q", rest)
		}
		if m, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
			return 0, fmt.Errorf("bad minutes %q", rest)
		}
		if sec, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
			return 0, fmt.Errorf("bad seconds %q", rest)
		}
	case 2:
		if m, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
			return 0, fmt.Errorf("bad minutes %q", rest)
		}
		if sec, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
			return 0, fmt.Errorf("bad seconds %q", rest)
		}
	default:
		return 0, fmt.Errorf("bad timelimit %q", s)
	}
	return time.Duration(days*86400+h*3600+m*60+sec) * time.Second, nil
}

// JoinPower copies the power characteristics of src's jobs into d's jobs
// by job ID — the accounting-plus-telemetry join of §2.2. It returns the
// number of jobs joined.
func (d *Dataset) JoinPower(src *Dataset) int {
	byID := make(map[uint64]*Job, len(src.Jobs))
	for i := range src.Jobs {
		byID[src.Jobs[i].ID] = &src.Jobs[i]
	}
	joined := 0
	for i := range d.Jobs {
		s, ok := byID[d.Jobs[i].ID]
		if !ok {
			continue
		}
		dst := &d.Jobs[i]
		dst.AvgPowerPerNode = s.AvgPowerPerNode
		dst.Energy = s.Energy
		dst.Instrumented = s.Instrumented
		dst.TemporalCVPct = s.TemporalCVPct
		dst.PeakOvershootPct = s.PeakOvershootPct
		dst.PctTimeAboveMean10 = s.PctTimeAboveMean10
		dst.AvgSpatialSpreadW = s.AvgSpatialSpreadW
		dst.SpatialSpreadPct = s.SpatialSpreadPct
		dst.PctTimeSpreadAboveAvg = s.PctTimeSpreadAboveAvg
		dst.NodeEnergySpreadPct = s.NodeEnergySpreadPct
		joined++
	}
	return joined
}
