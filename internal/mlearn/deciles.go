package mlearn

import (
	"sort"

	"hpcpower/internal/stats"
)

// Fig. 15's claim is that prediction quality holds "across users and not
// just for a few users which submit the most jobs". ErrorByUserVolume
// makes that measurable: users are bucketed by how many jobs they submit,
// and each bucket reports its mean absolute prediction error.

// VolumeBucket is one activity bucket of the per-user error breakdown.
type VolumeBucket struct {
	// Quartile is 1 (least active users) to 4 (most active).
	Quartile int
	Users    int
	// MinJobs/MaxJobs delimit the bucket's user sizes in the dataset.
	MinJobs, MaxJobs int
	// MeanErrPct / MedianErrPct aggregate the per-user mean errors.
	MeanErrPct   float64
	MedianErrPct float64
	// FracUsersBelow5 is the Fig. 15 headline within the bucket.
	FracUsersBelow5 float64
}

// ErrorByUserVolume evaluates the model across cfg.Reps stratified splits
// and buckets per-user mean errors by user activity quartile.
func ErrorByUserVolume(samples []Sample, factory func() Model, cfg EvalConfig) ([]VolumeBucket, error) {
	splits, _, err := drawSplits(samples, cfg)
	if err != nil {
		return nil, err
	}
	_, _, perUserErrs, err := score(splits, factory)
	if err != nil {
		return nil, err
	}
	jobCount := map[string]int{}
	for _, s := range samples {
		jobCount[s.User]++
	}

	type userErr struct {
		user string
		jobs int
		mean float64
	}
	all := make([]userErr, 0, len(perUserErrs))
	for u, es := range perUserErrs {
		all = append(all, userErr{user: u, jobs: jobCount[u], mean: stats.Mean(es)})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].jobs != all[b].jobs {
			return all[a].jobs < all[b].jobs
		}
		return all[a].user < all[b].user
	})

	var out []VolumeBucket
	n := len(all)
	for q := 0; q < 4; q++ {
		lo := q * n / 4
		hi := (q + 1) * n / 4
		if lo >= hi {
			continue
		}
		slice := all[lo:hi]
		errs := make([]float64, len(slice))
		below5 := 0
		minJ, maxJ := slice[0].jobs, slice[0].jobs
		for i, u := range slice {
			errs[i] = u.mean
			if u.mean < 5 {
				below5++
			}
			if u.jobs < minJ {
				minJ = u.jobs
			}
			if u.jobs > maxJ {
				maxJ = u.jobs
			}
		}
		out = append(out, VolumeBucket{
			Quartile: q + 1, Users: len(slice),
			MinJobs: minJ, MaxJobs: maxJ,
			MeanErrPct:      stats.Mean(errs),
			MedianErrPct:    stats.Median(errs),
			FracUsersBelow5: 100 * float64(below5) / float64(len(slice)),
		})
	}
	return out, nil
}
