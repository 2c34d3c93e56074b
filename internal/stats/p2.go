package stats

import (
	"fmt"
	"math"
	"sort"
)

// P2Quantile is the Jain/Chlamtac P² streaming quantile estimator: it
// tracks a single quantile of an unbounded stream in O(1) memory, without
// storing observations. Full-scale traces produce tens of millions of
// node-minute samples; P² lets monitoring-side consumers (and the
// streaming analyses) report percentiles without materializing them.
type P2Quantile struct {
	p       float64
	n       int
	heights [5]float64 // marker heights
	pos     [5]float64 // marker positions (1-based)
	want    [5]float64 // desired positions
	incr    [5]float64 // desired-position increments
	initial []float64  // first five observations
}

// NewP2Quantile tracks the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) (*P2Quantile, error) {
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("stats: P2 quantile %v out of (0,1)", p)
	}
	q := &P2Quantile{p: p}
	q.incr = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q, nil
}

// Add folds one observation into the estimator.
func (q *P2Quantile) Add(x float64) {
	if q.n < 5 {
		q.initial = append(q.initial, x)
		q.n++
		if q.n == 5 {
			sort.Float64s(q.initial)
			for i := 0; i < 5; i++ {
				q.heights[i] = q.initial[i]
				q.pos[i] = float64(i + 1)
			}
			q.want = [5]float64{1, 1 + 2*q.p, 1 + 4*q.p, 3 + 2*q.p, 5}
			q.initial = nil
		}
		return
	}
	q.n++

	// Find the cell k containing x and update extreme markers.
	var k int
	switch {
	case x < q.heights[0]:
		q.heights[0] = x
		k = 0
	case x >= q.heights[4]:
		q.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.want[i] += q.incr[i]
	}

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := q.parabolic(i, sign)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic prediction for marker i.
func (q *P2Quantile) parabolic(i int, sign float64) float64 {
	return q.heights[i] + sign/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+sign)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-sign)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
}

// linear is the fallback linear prediction.
func (q *P2Quantile) linear(i int, sign float64) float64 {
	j := i + int(sign)
	return q.heights[i] + sign*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// P2State is the exact serializable image of a P2Quantile, used by the
// TSDB snapshot path. A restored estimator continues the stream with
// byte-identical marker updates.
type P2State struct {
	P       float64    `json:"p"`
	N       int        `json:"n"`
	Heights [5]float64 `json:"heights"`
	Pos     [5]float64 `json:"pos"`
	Want    [5]float64 `json:"want"`
	Incr    [5]float64 `json:"incr"`
	Initial []float64  `json:"initial,omitempty"`
}

// State captures the estimator's exact internal state.
func (q *P2Quantile) State() P2State {
	return P2State{
		P: q.p, N: q.n,
		Heights: q.heights, Pos: q.pos, Want: q.want, Incr: q.incr,
		Initial: append([]float64(nil), q.initial...),
	}
}

// P2FromState reconstructs an estimator from a captured state.
func P2FromState(s P2State) (*P2Quantile, error) {
	if s.P <= 0 || s.P >= 1 {
		return nil, fmt.Errorf("stats: P2 state quantile %v out of (0,1)", s.P)
	}
	if s.N < 0 || (s.N < 5 && len(s.Initial) != s.N) {
		return nil, fmt.Errorf("stats: P2 state has n=%d but %d initial observations", s.N, len(s.Initial))
	}
	return &P2Quantile{
		p: s.P, n: s.N,
		heights: s.Heights, pos: s.Pos, want: s.Want, incr: s.Incr,
		initial: append([]float64(nil), s.Initial...),
	}, nil
}

// Value returns the current quantile estimate; NaN before any data.
func (q *P2Quantile) Value() float64 {
	switch {
	case q.n == 0:
		return math.NaN()
	case q.n < 5:
		// Fall back to the exact small-sample quantile.
		tmp := append([]float64(nil), q.initial...)
		sort.Float64s(tmp)
		return quantileSorted(tmp, q.p)
	default:
		return q.heights[2]
	}
}
