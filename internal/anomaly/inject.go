package anomaly

import (
	"fmt"
	"math/rand"
	"sort"

	"hpcpower/internal/spec"
	"hpcpower/internal/trace"
)

// Injection profiles: synthetic single-node job power series with a
// known anomaly class, used by powload -anomaly and the anomaly smoke
// to measure detector precision/recall against ground truth. An
// anomalous profile carries its detector's name (Profiles).
const ProfileNormal = "normal" // control: phased, noisy, healthy job

// Profiles lists the anomalous profile names (the injectable classes;
// "normal" is the control and detects as nothing).
func Profiles() []string {
	return []string{DetectFlatline, DetectZombie, DetectOvershoot, DetectDrift}
}

// InjectSpec is the powload -anomaly grammar bound to n: every profile
// is a key whose value is a job count.
func InjectSpec(n *int) spec.Set {
	var set spec.Set
	for _, p := range append(Profiles(), ProfileNormal) {
		set = append(set, spec.Int(p, n, "jobs of the "+p+" profile to inject").Range(1, 10000))
	}
	return set
}

// ParseInjectSpec parses "flatline=2,zombie=1,overshoot=2,drift=1":
// how many jobs of each anomalous profile to inject. Keys may repeat
// (counts add); unknown profiles and non-positive counts are errors.
func ParseInjectSpec(s string) (map[string]int, error) {
	out := map[string]int{}
	var n int
	set := InjectSpec(&n)
	err := spec.Pairs(s, func(k, v string) error {
		if err := set.Apply(k, v); err != nil {
			return err
		}
		out[k] += n
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("anomaly: inject spec: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("anomaly: empty inject spec")
	}
	return out, nil
}

// GenProfile synthesizes one injected job: a single-node minute-cadence
// power series exhibiting the named profile. The series is
// deterministic in (seed); baseW sets the healthy working level.
func GenProfile(profile string, jobID uint64, node int, startUnix int64, minutes int, baseW float64, seed int64) ([]trace.PowerSample, error) {
	if minutes <= 0 {
		minutes = 120
	}
	if baseW <= 0 {
		baseW = 220
	}
	rng := rand.New(rand.NewSource(seed))
	gen, ok := profileGens[profile]
	if !ok {
		return nil, fmt.Errorf("anomaly: unknown profile %q", profile)
	}
	out := make([]trace.PowerSample, 0, minutes)
	for m := 0; m < minutes; m++ {
		w := gen(m, minutes, baseW, rng)
		if w < 1 {
			w = 1
		}
		out = append(out, trace.PowerSample{
			Node: node, JobID: jobID,
			Unix: startUnix + int64(m)*60, PowerW: w,
		})
	}
	return out, nil
}

// profileGens maps profile → per-minute wattage generator.
var profileGens = map[string]func(m, minutes int, base float64, rng *rand.Rand) float64{
	// normal: three phases around base with ~5% in-phase noise — the
	// healthy shape the default rules must stay silent on.
	ProfileNormal: func(m, minutes int, base float64, rng *rand.Rand) float64 {
		phase := 1.0
		switch (m * 3) / max(minutes, 1) {
		case 0:
			phase = 0.92
		case 1:
			phase = 1.08
		default:
			phase = 0.97
		}
		return base * phase * (1 + 0.05*rng.NormFloat64())
	},
	// flatline: a short noisy ramp, then rock-steady high power — the
	// variance collapse of a fixed-intensity interloper (cryptomining
	// profile) that ignores the job's real computational phases.
	DetectFlatline: func(m, minutes int, base float64, rng *rand.Rand) float64 {
		if m < 8 {
			return base * (0.7 + 0.05*float64(m)) * (1 + 0.04*rng.NormFloat64())
		}
		return base * 1.12 * (1 + 0.001*rng.NormFloat64())
	},
	// zombie: real phased activity for the first 40%, then a hard drop
	// to an idle floor — the job lost its work but keeps its nodes.
	DetectZombie: func(m, minutes int, base float64, rng *rand.Rand) float64 {
		cut := (minutes * 2) / 5
		if m < cut {
			return base * (1 + 0.06*rng.NormFloat64())
		}
		return base * 0.18 * (1 + 0.02*rng.NormFloat64())
	},
	// overshoot: a healthy base load punctured by tall short spikes,
	// pushing lifetime (max−mean)/mean far past the paper's 10–12%
	// envelope (and the default rule's 50% runaway threshold).
	DetectOvershoot: func(m, minutes int, base float64, rng *rand.Rand) float64 {
		if m > 10 && m%17 < 2 {
			return base * 1.9 * (1 + 0.02*rng.NormFloat64())
		}
		return base * (1 + 0.04*rng.NormFloat64())
	},
	// drift: stable, then a steady ramp to ~2.6× over the middle 3/5,
	// then a plateau — a creeping baseline no step-change explains. The
	// ramp is steep enough that the slow baseline's lag repeatedly
	// clears the CUSUM slack, building the same-direction phase-shift
	// run the drift rule keys on (shifts land minutes apart, outside
	// the step-echo merge window).
	DetectDrift: func(m, minutes int, base float64, rng *rand.Rand) float64 {
		rampStart, rampEnd := minutes/5, (4*minutes)/5
		level := 1.0
		switch {
		case m >= rampEnd:
			level = 2.6
		case m > rampStart:
			level = 1.0 + 1.6*float64(m-rampStart)/float64(max(rampEnd-rampStart, 1))
		}
		return base * level * (1 + 0.03*rng.NormFloat64())
	},
}

// Labels is the injection ground truth: job ID → profile name.
type Labels map[uint64]string

// Verdict summarizes detection quality against ground-truth labels:
// an injected job counts as detected when at least one fire event of
// the matching detector exists for it; any fire on an unlabeled job is
// a false positive.
type Verdict struct {
	Injected  int     `json:"injected"`
	Detected  int     `json:"detected"`
	Missed    []int64 `json:"missed,omitempty"` // job IDs (int64 for JSON tools)
	FalseJobs []int64 `json:"false_jobs,omitempty"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

// Score computes the verdict from fire events. Detector match is
// required for recall credit (a zombie caught only by the flatline
// rule is a miss); precision is job-level (any fire on a job that was
// not injected anomalous counts against it, and "normal" control jobs
// count as negatives).
func Score(labels Labels, fires []Event) Verdict {
	byJob := map[uint64]map[string]struct{}{}
	for _, ev := range fires {
		if ev.Type != EventFire {
			continue
		}
		if byJob[ev.Job] == nil {
			byJob[ev.Job] = map[string]struct{}{}
		}
		byJob[ev.Job][ev.Detector] = struct{}{}
	}
	v := Verdict{}
	truePos := 0
	for job, profile := range labels {
		if profile == ProfileNormal {
			continue
		}
		v.Injected++
		if _, ok := byJob[job][profile]; ok {
			v.Detected++
		} else {
			v.Missed = append(v.Missed, int64(job))
		}
	}
	for job := range byJob {
		if p, ok := labels[job]; ok && p != ProfileNormal {
			truePos++
		} else {
			v.FalseJobs = append(v.FalseJobs, int64(job))
		}
	}
	alerted := len(byJob)
	if alerted > 0 {
		v.Precision = float64(truePos) / float64(alerted)
	} else {
		v.Precision = 1
	}
	if v.Injected > 0 {
		v.Recall = float64(v.Detected) / float64(v.Injected)
	} else {
		v.Recall = 1
	}
	sort.Slice(v.Missed, func(a, b int) bool { return v.Missed[a] < v.Missed[b] })
	sort.Slice(v.FalseJobs, func(a, b int) bool { return v.FalseJobs[a] < v.FalseJobs[b] })
	return v
}
