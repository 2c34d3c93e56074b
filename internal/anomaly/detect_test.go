package anomaly

import (
	"math/rand"
	"testing"

	"hpcpower/internal/stats"
)

// TestFlatlineNeverFiresOnIdleJobs is the detector's core safety
// property: a job whose power never reaches the rule's absolute floor
// cannot trip the flatline rule, no matter how perfectly flat its draw
// is — idle nodes are flat by nature and must stay silent.
func TestFlatlineNeverFiresOnIdleJobs(t *testing.T) {
	rule, _ := DefaultRule(DetectFlatline)
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		// Idle-power series: everything strictly below MinW, with trial-
		// varied flatness down to perfectly constant (the worst case).
		level := rule.MinW * rng.Float64() * 0.999
		if level < 1 {
			level = 1
		}
		noise := rule.MinW * 0.001 * rng.Float64() * float64(trial%2)
		var f Fingerprint
		for i := 0; i < 500; i++ {
			w := level + noise*rng.NormFloat64()
			if w < 0.5 {
				w = 0.5
			}
			if w >= rule.MinW {
				w = rule.MinW - 0.5
			}
			observe(&f, int64(1000+i*60), w)
			if active, v, th := rule.Eval(&f); active {
				t.Fatalf("trial %d: flatline fired on an idle job (level %.1fW < MinW %.1fW) at sample %d: value %v threshold %v",
					trial, level, rule.MinW, i, v, th)
			}
		}
	}
}

// TestOvershootMatchesBruteForce pins the overshoot detector to the
// paper's definition: the fingerprint's (max−mean)/mean is bit-identical
// to the brute-force computation over every sample seen.
func TestOvershootMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 50 + rng.Intn(500)
		var f Fingerprint
		var sum, maxW float64
		for i := 0; i < n; i++ {
			w := 50 + 300*rng.Float64()
			if rng.Intn(20) == 0 {
				w *= 2 // occasional spike
			}
			observe(&f, int64(1000+i*60), w)
			sum += w
			if w > maxW {
				maxW = w
			}
		}
		brute := 100 * (maxW - sum/float64(n)) / (sum / float64(n))
		if got := f.OvershootPct(); got != brute {
			t.Fatalf("trial %d: streaming overshoot %v != brute force %v", trial, got, brute)
		}
	}
}

// TestOvershootEvalAgainstBruteForceRule cross-checks the full rule:
// Eval's verdict equals applying the brute-force check directly.
func TestOvershootEvalAgainstBruteForceRule(t *testing.T) {
	rule, _ := DefaultRule(DetectOvershoot)
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		n := rule.MinSamples + rng.Intn(300)
		var f Fingerprint
		samples := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			w := 100 + 50*rng.NormFloat64()
			if w < 1 {
				w = 1
			}
			samples = append(samples, w)
			observe(&f, int64(1000+i*60), w)
		}
		var sum, maxW float64
		for _, w := range samples {
			sum += w
			if w > maxW {
				maxW = w
			}
		}
		mean := sum / float64(len(samples))
		wantActive := 100*(maxW-mean)/mean > rule.OvershootPct
		gotActive, _, _ := rule.Eval(&f)
		if gotActive != wantActive {
			t.Fatalf("trial %d: Eval active=%v, brute force says %v (overshoot %v)",
				trial, gotActive, wantActive, 100*(maxW-mean)/mean)
		}
	}
}

// TestZombieRequiresPriorActivity: a job that never exceeded the floor
// cannot be a zombie — there was no activity to lose.
func TestZombieRequiresPriorActivity(t *testing.T) {
	rule, _ := DefaultRule(DetectZombie)
	var f Fingerprint
	for i := 0; i < 300; i++ {
		observe(&f, int64(1000+i*60), rule.MinW*0.3)
		if active, _, _ := rule.Eval(&f); active {
			t.Fatalf("zombie fired at sample %d on a job that was never active", i)
		}
	}
}

// TestDriftIgnoresStepChange: a single clean step is one phase shift
// and must never satisfy the drift rule's run requirement.
func TestDriftIgnoresStepChange(t *testing.T) {
	rule, _ := DefaultRule(DetectDrift)
	var f Fingerprint
	unix := int64(1000)
	for i := 0; i < 120; i++ {
		w := 150.0
		if i >= 60 {
			w = 280
		}
		observe(&f, unix, w)
		unix += 60
		if active, v, th := rule.Eval(&f); active {
			t.Fatalf("drift fired on a step change at sample %d (value %v, threshold %v, runlen %d)",
				i, v, th, f.RunLen)
		}
	}
}

// TestEvalWarmupGate: no detector evaluates before MinSamples.
func TestEvalWarmupGate(t *testing.T) {
	for _, rules := range [][]Rule{DefaultRules()} {
		for _, r := range rules {
			var f Fingerprint
			// Extreme inputs that would trip any detector once warm.
			for i := 0; i < r.MinSamples-1; i++ {
				observe(&f, int64(1000+i*60), 500)
				if active, _, _ := r.Eval(&f); active {
					t.Errorf("%s fired during warmup at sample %d (< MinSamples %d)",
						r.Name, i+1, r.MinSamples)
				}
			}
		}
	}
}

// TestEvalWarmupMultiNode: a 16-node job passes MinSamples in its first
// minute, before its trend has folded one. When the first minute folds,
// the variance proxy starts at the spread of the nodes' readings, so a
// healthy job whose nodes read 2.5 % apart is not flat at any minute.
func TestEvalWarmupMultiNode(t *testing.T) {
	rule, _ := DefaultRule(DetectFlatline)
	var f Fingerprint
	for minute := int64(0); minute < 30; minute++ {
		var m stats.Moments
		for node := 0; node < 16; node++ {
			w := 200 * (1 + 0.025*float64(1-2*(node%2)))
			m.Add(w)
			f.N, f.Sum, f.Max, f.Last = f.N+1, f.Sum+w, max(f.Max, w), 1000+minute*60
		}
		if active, v, _ := rule.Eval(&f); active {
			t.Fatalf("flatline fired at minute %d with %d minutes folded (relstd %.4f)", minute, f.folds(), v)
		}
		f.Trend.Update(1000+minute*60, m.Mean(), m.Variance())
	}
}
