package trace

// Dataset slicing utilities: the paper's analyses repeatedly restrict the
// job table — to one month (robustness), to one application (Fig. 4), to
// multi-node jobs (Figs. 8-10). These helpers produce consistent
// sub-datasets (jobs plus their retained series and the covered system
// window) without mutating the original.

// FilterJobs returns a copy of the dataset containing only jobs for which
// keep returns true, along with their retained series. The system series
// is carried over unchanged (it describes the whole machine).
func (d *Dataset) FilterJobs(keep func(*Job) bool) *Dataset {
	out := &Dataset{
		Meta:   d.Meta,
		System: d.System,
		Series: map[uint64][]NodeSeries{},
	}
	for i := range d.Jobs {
		j := &d.Jobs[i]
		if !keep(j) {
			continue
		}
		out.Jobs = append(out.Jobs, *j)
		if s, ok := d.Series[j.ID]; ok {
			out.Series[j.ID] = s
		}
	}
	return out
}

// ByApp returns the sub-dataset of jobs running the named application.
func (d *Dataset) ByApp(app string) *Dataset {
	return d.FilterJobs(func(j *Job) bool { return j.App == app })
}

// MultiNode returns the sub-dataset of jobs with at least minNodes nodes.
func (d *Dataset) MultiNode(minNodes int) *Dataset {
	return d.FilterJobs(func(j *Job) bool { return j.Nodes >= minNodes })
}
