// Package users models the user population of an HPC system.
//
// The study's user-level findings (§5) hinge on the structure of real user
// behaviour:
//
//   - user activity is heavy-tailed: ~20% of users consume ~85% of
//     node-hours and energy (Fig. 11);
//   - a user's jobs span a WIDE range of power behaviour overall (Fig. 12),
//     because users run several distinct job configurations; but
//   - HPC jobs are repetitive: multiple instances of the same configuration
//     (same application, node count, and requested walltime) have very
//     similar power (Fig. 13), which is what makes pre-execution power
//     prediction from (user, nodes, walltime) work (Figs. 14-15).
//
// A User therefore owns a repertoire of Configs — repeated job templates —
// with a Zipf-weighted choice among them, plus a small exploration
// probability for one-off runs.
package users

import (
	"fmt"
	"math"
	"time"

	"hpcpower/internal/apps"
	"hpcpower/internal/cluster"
	"hpcpower/internal/rng"
)

// nodeLadder holds the node counts users actually request (powers of two
// and common in-between sizes).
var nodeLadder = []int{1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 48, 64, 96, 128}

// wallLadder holds the requested walltimes users pick, in hours. Batch
// systems see a handful of round numbers, not a continuum.
var wallLadder = []float64{1, 2, 4, 6, 8, 12, 16, 24, 48, 72}

// Config is a repeated job template: what a user resubmits over and over
// with different inputs.
type Config struct {
	App     string
	Nodes   int
	ReqWall time.Duration
	// PowerTilt is a persistent multiplicative offset on the application's
	// mean power for this configuration (same input deck, same solver
	// settings → same deviation from the app average, run after run).
	PowerTilt float64
	// WallUseMean is the mean fraction of the requested walltime the jobs
	// of this config actually use.
	WallUseMean float64
	// Weight is the relative submission frequency of this config within
	// the user's repertoire.
	Weight float64
}

// User is one account on the system.
type User struct {
	ID string
	// Activity is the user's relative job-submission rate.
	Activity float64
	// Explore is the probability that a submission is a one-off
	// configuration instead of one from the repertoire.
	Explore float64
	Configs []Config
}

// Population is the user population of one system.
type Population struct {
	System  cluster.Spec
	Users   []User
	weights []float64 // cached activity weights for sampling
}

// Params tunes population synthesis per system.
type Params struct {
	NumUsers int
	// ZipfExponent shapes the activity distribution; ~1.1-1.5 reproduces
	// the "20% of users take 85% of node-hours" concentration.
	ZipfExponent float64
	// ConfigsMin/Max bound repertoire sizes.
	ConfigsMin, ConfigsMax int
	// Diversity in [0,1] widens each user's app/size/walltime range. The
	// paper finds Meggie's users far more varied (per-user power std
	// ~100% vs ~50% on Emmy), so Meggie gets the higher diversity.
	Diversity float64
	// Explore is the one-off submission probability.
	Explore float64
}

// DefaultParams returns the population parameters used for each system in
// the study's reproduction.
func DefaultParams(spec cluster.Spec) Params {
	switch spec.Name {
	case "Meggie":
		return Params{
			NumUsers: 110, ZipfExponent: 1.25,
			ConfigsMin: 2, ConfigsMax: 10,
			Diversity: 1.0, Explore: 0.02,
		}
	default: // Emmy and any Emmy-like general-purpose system
		return Params{
			NumUsers: 190, ZipfExponent: 1.30,
			ConfigsMin: 2, ConfigsMax: 9,
			Diversity: 0.5, Explore: 0.02,
		}
	}
}

// NewPopulation synthesizes a user population for spec from src.
func NewPopulation(spec cluster.Spec, p Params, src *rng.Source) (*Population, error) {
	if p.NumUsers <= 0 {
		return nil, fmt.Errorf("users: population of %d users", p.NumUsers)
	}
	if p.ConfigsMin <= 0 || p.ConfigsMax < p.ConfigsMin {
		return nil, fmt.Errorf("users: bad repertoire bounds [%d,%d]", p.ConfigsMin, p.ConfigsMax)
	}
	pop := &Population{System: spec}
	catalog := apps.Catalog()
	for i := 0; i < p.NumUsers; i++ {
		us := src.Split(0x05e5, uint64(i))
		u := User{
			ID: fmt.Sprintf("u%03d", i+1),
			// Zipf-like activity by rank with a small random wobble so the
			// ordering is not perfectly deterministic.
			Activity: math.Pow(float64(i+1), -p.ZipfExponent) * us.LogNormal(0, 0.25),
		}
		// Repertoire size scales with activity: heavy users run many
		// distinct job types; casual users run one or two workflows. This
		// matches production accounting logs and is what keeps prediction
		// quality high "across users and not just for a few users which
		// submit the most jobs" (paper §5, Fig. 15).
		rankFrac := 1.0
		if p.NumUsers > 1 {
			rankFrac = math.Pow(1-float64(i)/float64(p.NumUsers-1), 2)
		}
		nCfg := p.ConfigsMin + int(float64(p.ConfigsMax-p.ConfigsMin)*rankFrac+us.Float64())
		if nCfg > p.ConfigsMax {
			nCfg = p.ConfigsMax
		}
		// Casual users stick to their workflow; heavy users try one-offs.
		u.Explore = p.Explore * (0.25 + 0.75*rankFrac)
		prefs := classPreference(us, p.Diversity)
		// Users tell their job types apart by size and walltime: each
		// repertoire config occupies a distinct (nodes, walltime) cell.
		// Without this, colliding cells with different applications make
		// the user's power inherently unpredictable from pre-execution
		// features — far beyond what the paper observes (Figs. 13-15).
		taken := map[[2]int64]bool{}
		for c := 0; c < nCfg; c++ {
			cfg := drawConfig(us, catalog, prefs, p.Diversity)
			for attempt := 0; attempt < 20; attempt++ {
				cell := [2]int64{int64(cfg.Nodes), int64(cfg.ReqWall)}
				if !taken[cell] {
					taken[cell] = true
					break
				}
				cfg = drawConfig(us, catalog, prefs, p.Diversity)
			}
			// Zipf-weighted repertoire: the favourite config dominates.
			cfg.Weight = math.Pow(float64(c+1), -0.8)
			u.Configs = append(u.Configs, cfg)
		}
		pop.Users = append(pop.Users, u)
	}
	pop.weights = make([]float64, len(pop.Users))
	for i := range pop.Users {
		pop.weights[i] = pop.Users[i].Activity
	}
	return pop, nil
}

// classPreference draws a user's per-class affinity. Low diversity gives a
// user one dominant domain; high diversity spreads submissions over many.
func classPreference(src *rng.Source, diversity float64) map[apps.Class]float64 {
	classes := []apps.Class{apps.MolecularDynamics, apps.Chemistry, apps.CFD, apps.Other}
	prefs := make(map[apps.Class]float64, len(classes))
	// Class shares of the overall workload steer which domain a user lands in.
	share := apps.ClassShare()
	weights := make([]float64, len(classes))
	for i, c := range classes {
		weights[i] = share[c]
	}
	main := classes[src.Choice(weights)]
	for _, c := range classes {
		if c == main {
			prefs[c] = 1
		} else {
			prefs[c] = 0.03 + 1.1*diversity*diversity*src.Float64()
		}
	}
	return prefs
}

// drawConfig synthesizes one job template for a user.
func drawConfig(src *rng.Source, catalog []apps.Profile, prefs map[apps.Class]float64, diversity float64) Config {
	// Choose the application: catalog share × user's class preference.
	weights := make([]float64, len(catalog))
	for i, a := range catalog {
		weights[i] = a.ShareNodeHours * prefs[a.Class]
	}
	app := catalog[src.Choice(weights)]

	// Node count: log-normal around the app's typical size, wider with
	// higher diversity, snapped to the request ladder.
	sigma := 0.40 + 0.45*diversity
	nodes := snapInt(nodeLadder, float64(app.TypicalNodes)*src.LogNormal(0, sigma))

	// Requested walltime: log-normal around the app's typical request.
	wallH := snapFloat(wallLadder, app.TypicalWallHours*src.LogNormal(0, 0.4+0.5*diversity))

	return Config{
		App:       app.Name,
		Nodes:     nodes,
		ReqWall:   time.Duration(wallH * float64(time.Hour)),
		PowerTilt: src.TruncNormal(1, app.PowerSpread, 0.6, 1.4),
		// Users ask for head-room: jobs typically use 30-95% of the request.
		WallUseMean: src.TruncNormal(0.62, 0.18, 0.15, 0.98),
		Weight:      1,
	}
}

// snapInt returns the ladder value closest to v in log space.
func snapInt(ladder []int, v float64) int {
	best, bestD := ladder[0], math.Inf(1)
	for _, l := range ladder {
		d := math.Abs(math.Log(float64(l)) - math.Log(math.Max(v, 0.5)))
		if d < bestD {
			best, bestD = l, d
		}
	}
	return best
}

// snapFloat returns the ladder value closest to v in log space.
func snapFloat(ladder []float64, v float64) float64 {
	best, bestD := ladder[0], math.Inf(1)
	for _, l := range ladder {
		d := math.Abs(math.Log(l) - math.Log(math.Max(v, 0.1)))
		if d < bestD {
			best, bestD = l, d
		}
	}
	return best
}

// SampleUser draws a user index proportional to activity.
func (p *Population) SampleUser(src *rng.Source) *User {
	return &p.Users[src.Choice(p.weights)]
}

// SampleConfig draws a submission from the user: usually a repertoire
// config, occasionally (Explore) a fresh one-off template.
func (u *User) SampleConfig(src *rng.Source, diversity float64) Config {
	if src.Bool(u.Explore) {
		prefs := classPreference(src, diversity)
		return drawConfig(src, apps.Catalog(), prefs, diversity)
	}
	weights := make([]float64, len(u.Configs))
	for i := range u.Configs {
		weights[i] = u.Configs[i].Weight
	}
	return u.Configs[src.Choice(weights)]
}
