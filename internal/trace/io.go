package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"hpcpower/internal/units"
	"hpcpower/internal/vfs"
)

// On-disk layout of a released dataset directory:
//
//	meta.json    — Meta (system name, node count, TDP, window, seed)
//	jobs.csv     — one row per job: accounting + power characteristics
//	system.csv   — one row per minute: active nodes, total power
//	series.csv   — long-format per-node minute samples (instrumented jobs)
const (
	metaFile   = "meta.json"
	jobsFile   = "jobs.csv"
	systemFile = "system.csv"
	seriesFile = "series.csv"
)

// jobsHeader is the column schema of jobs.csv.
var jobsHeader = []string{
	"job_id", "user", "app", "nodes",
	"submit_unix", "start_unix", "end_unix", "req_walltime_s",
	"avg_power_per_node_w", "energy_j",
	"instrumented",
	"temporal_cv_pct", "peak_overshoot_pct", "pct_time_above_mean10",
	"avg_spatial_spread_w", "spatial_spread_pct", "pct_time_spread_above_avg",
	"node_energy_spread_pct",
}

// Save writes the dataset into dir, creating it if needed.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: creating dataset dir: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, metaFile), d.writeMeta); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, jobsFile), d.WriteJobsCSV); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, systemFile), d.WriteSystemCSV); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, seriesFile), d.WriteSeriesCSV)
}

// Load reads a dataset previously written by Save.
func Load(dir string) (*Dataset, error) {
	d := &Dataset{Series: map[uint64][]NodeSeries{}}
	if err := readFile(filepath.Join(dir, metaFile), d.readMeta); err != nil {
		return nil, err
	}
	if err := readFile(filepath.Join(dir, jobsFile), d.ReadJobsCSV); err != nil {
		return nil, err
	}
	if err := readFile(filepath.Join(dir, systemFile), d.ReadSystemCSV); err != nil {
		return nil, err
	}
	if err := d.loadSeries(dir); err != nil {
		return nil, err
	}
	return d, nil
}

// writeFileAtomic publishes one dataset file as the server publishes its
// durable ones, buffered: the CSV writers emit a row at a time. I/O
// errors come back as *fs.PathError, naming the operation and the file.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	return vfs.WriteFileAtomic(vfs.OS, path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		if err := write(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}

func readFile(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return read(bufio.NewReaderSize(f, 1<<20))
}

func (d *Dataset) writeMeta(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d.Meta)
}

func (d *Dataset) readMeta(r io.Reader) error {
	return json.NewDecoder(r).Decode(&d.Meta)
}

// WriteJobsCSV writes the job table in the jobs.csv schema.
func (d *Dataset) WriteJobsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(jobsHeader); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	row := make([]string, len(jobsHeader))
	for i := range d.Jobs {
		j := &d.Jobs[i]
		row[0] = strconv.FormatUint(j.ID, 10)
		row[1] = j.User
		row[2] = j.App
		row[3] = strconv.Itoa(j.Nodes)
		row[4] = strconv.FormatInt(j.Submit.Unix(), 10)
		row[5] = strconv.FormatInt(j.Start.Unix(), 10)
		row[6] = strconv.FormatInt(j.End.Unix(), 10)
		row[7] = strconv.FormatInt(int64(j.ReqWall/time.Second), 10)
		row[8] = fmtF(float64(j.AvgPowerPerNode))
		row[9] = fmtF(float64(j.Energy))
		row[10] = strconv.FormatBool(j.Instrumented)
		row[11] = fmtF(j.TemporalCVPct)
		row[12] = fmtF(j.PeakOvershootPct)
		row[13] = fmtF(j.PctTimeAboveMean10)
		row[14] = fmtF(j.AvgSpatialSpreadW)
		row[15] = fmtF(j.SpatialSpreadPct)
		row[16] = fmtF(j.PctTimeSpreadAboveAvg)
		row[17] = fmtF(j.NodeEnergySpreadPct)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadJobsCSV parses a jobs.csv table, appending to d.Jobs.
func (d *Dataset) ReadJobsCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("trace: reading jobs header: %w", err)
	}
	if len(header) != len(jobsHeader) {
		return fmt.Errorf("trace: jobs.csv has %d columns, want %d", len(header), len(jobsHeader))
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: jobs.csv line %d: %w", line, err)
		}
		j, err := parseJobRow(rec)
		if err != nil {
			return fmt.Errorf("trace: jobs.csv line %d: %w", line, err)
		}
		d.Jobs = append(d.Jobs, j)
	}
}

func parseJobRow(rec []string) (Job, error) {
	var j Job
	p := fieldParser{rec: rec}
	j.ID = p.uint(0)
	j.User = rec[1]
	j.App = rec[2]
	j.Nodes = p.int(3)
	j.Submit = time.Unix(p.int64(4), 0).UTC()
	j.Start = time.Unix(p.int64(5), 0).UTC()
	j.End = time.Unix(p.int64(6), 0).UTC()
	j.ReqWall = time.Duration(p.int64(7)) * time.Second
	j.AvgPowerPerNode = units.Watts(p.float(8))
	j.Energy = units.Joules(p.float(9))
	j.Instrumented = p.bool(10)
	j.TemporalCVPct = p.float(11)
	j.PeakOvershootPct = p.float(12)
	j.PctTimeAboveMean10 = p.float(13)
	j.AvgSpatialSpreadW = p.float(14)
	j.SpatialSpreadPct = p.float(15)
	j.PctTimeSpreadAboveAvg = p.float(16)
	j.NodeEnergySpreadPct = p.float(17)
	return j, p.err
}

// fieldParser accumulates the first parse error over a record.
type fieldParser struct {
	rec []string
	err error
}

func (p *fieldParser) fail(i int, err error) {
	if p.err == nil {
		p.err = fmt.Errorf("column %d (%q): %w", i, p.rec[i], err)
	}
}

func (p *fieldParser) uint(i int) uint64 {
	v, err := strconv.ParseUint(p.rec[i], 10, 64)
	if err != nil {
		p.fail(i, err)
	}
	return v
}

func (p *fieldParser) int(i int) int {
	v, err := strconv.Atoi(p.rec[i])
	if err != nil {
		p.fail(i, err)
	}
	return v
}

func (p *fieldParser) int64(i int) int64 {
	v, err := strconv.ParseInt(p.rec[i], 10, 64)
	if err != nil {
		p.fail(i, err)
	}
	return v
}

func (p *fieldParser) float(i int) float64 {
	v, err := strconv.ParseFloat(p.rec[i], 64)
	if err != nil {
		p.fail(i, err)
	}
	return v
}

func (p *fieldParser) bool(i int) bool {
	v, err := strconv.ParseBool(p.rec[i])
	if err != nil {
		p.fail(i, err)
	}
	return v
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// WriteSystemCSV writes the cluster-level minute series.
func (d *Dataset) WriteSystemCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_unix", "active_nodes", "total_power_w"}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, s := range d.System {
		err := cw.Write([]string{
			strconv.FormatInt(s.Time.Unix(), 10),
			strconv.Itoa(s.ActiveNodes),
			fmtF(s.TotalPowerW),
		})
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSystemCSV parses a system.csv series, appending to d.System.
func (d *Dataset) ReadSystemCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	if _, err := cr.Read(); err != nil {
		return fmt.Errorf("trace: reading system header: %w", err)
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: system.csv line %d: %w", line, err)
		}
		p := fieldParser{rec: rec}
		s := SystemSample{
			Time:        time.Unix(p.int64(0), 0).UTC(),
			ActiveNodes: p.int(1),
			TotalPowerW: p.float(2),
		}
		if p.err != nil {
			return fmt.Errorf("trace: system.csv line %d: %w", line, p.err)
		}
		d.System = append(d.System, s)
	}
}

// WriteSeriesCSV writes time-resolved node series in long format:
// job_id, node, sample index, sample time, power.
func (d *Dataset) WriteSeriesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job_id", "node", "idx", "time_unix", "power_w"}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	ids := make([]uint64, 0, len(d.Series))
	for id := range d.Series {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	row := make([]string, 5)
	for _, id := range ids {
		for _, ns := range d.Series[id] {
			for i, pw := range ns.Power {
				row[0] = strconv.FormatUint(ns.JobID, 10)
				row[1] = strconv.Itoa(ns.Node)
				row[2] = strconv.Itoa(i)
				row[3] = strconv.FormatInt(ns.Start.Add(time.Duration(i)*units.SampleInterval).Unix(), 10)
				row[4] = fmtF(pw)
				if err := cw.Write(row); err != nil {
					return fmt.Errorf("trace: %w", err)
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSeriesCSV parses a series.csv file into d.Series. Rows must be
// grouped by (job, node) and ordered by sample index within each group, as
// WriteSeriesCSV produces them.
func (d *Dataset) ReadSeriesCSV(r io.Reader) error {
	if d.Series == nil {
		d.Series = map[uint64][]NodeSeries{}
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	if _, err := cr.Read(); err != nil {
		return fmt.Errorf("trace: reading series header: %w", err)
	}
	var cur *NodeSeries
	flush := func() {
		if cur != nil {
			d.Series[cur.JobID] = append(d.Series[cur.JobID], *cur)
			cur = nil
		}
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			flush()
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: series.csv line %d: %w", line, err)
		}
		p := fieldParser{rec: rec}
		jobID := p.uint(0)
		node := p.int(1)
		idx := p.int(2)
		ts := time.Unix(p.int64(3), 0).UTC()
		pw := p.float(4)
		if p.err != nil {
			return fmt.Errorf("trace: series.csv line %d: %w", line, p.err)
		}
		if cur == nil || cur.JobID != jobID || cur.Node != node {
			flush()
			if idx != 0 {
				return fmt.Errorf("trace: series.csv line %d: new series starts at idx %d", line, idx)
			}
			cur = &NodeSeries{JobID: jobID, Node: node, Start: ts}
		} else if idx != len(cur.Power) {
			return fmt.Errorf("trace: series.csv line %d: sample idx %d out of order", line, idx)
		}
		cur.Power = append(cur.Power, pw)
	}
}
