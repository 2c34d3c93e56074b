package admit

import "sync/atomic"

// Gate enforces the priority/shed matrix over per-class concurrency
// quotas. Pressure is supplied by the caller (the serve layer computes
// it from limiter saturation, queue occupancy, and the memory
// watermark):
//
//	class   quota        sheds at
//	repl    unlimited    never
//	ingest  (limiter)    never via the Gate — the Limiter/Queue govern it
//	query   QuerySlots   PressureCritical (memory watermark crossed)
//	admin   AdminSlots   PressureElevated (ingest saturated) and above
type Gate struct {
	pressure func() int // returns a Pressure* level; nil means none

	querySlots int64
	adminSlots int64
	queryHeld  atomic.Int64
	adminHeld  atomic.Int64

	shedQuery atomic.Uint64
	shedAdmin atomic.Uint64
}

// NewGate builds a gate with cfg's per-class quotas. pressure supplies
// the current Pressure* level; nil means always PressureNone.
func NewGate(cfg Config, pressure func() int) *Gate {
	cfg = cfg.WithDefaults()
	return &Gate{
		pressure:   pressure,
		querySlots: int64(cfg.QuerySlots),
		adminSlots: int64(cfg.AdminSlots),
	}
}

// Acquire admits or refuses a request of class c. On ok it returns a
// release func the caller must invoke exactly once when the request
// finishes; on refusal release is nil.
func (g *Gate) Acquire(c Class) (release func(), ok bool) {
	if g == nil {
		return func() {}, true
	}
	p := PressureNone
	if g.pressure != nil {
		p = g.pressure()
	}
	switch c {
	case ClassRepl, ClassIngest:
		// Never shed here: repl outranks everything, ingest is governed
		// by the limiter and CoDel queue instead.
		return func() {}, true
	case ClassQuery:
		if p >= PressureCritical {
			g.shedQuery.Add(1)
			return nil, false
		}
		return g.claim(&g.queryHeld, g.querySlots, &g.shedQuery)
	case ClassAdmin:
		if p >= PressureElevated {
			g.shedAdmin.Add(1)
			return nil, false
		}
		return g.claim(&g.adminHeld, g.adminSlots, &g.shedAdmin)
	default:
		return func() {}, true
	}
}

func (g *Gate) claim(held *atomic.Int64, slots int64, shed *atomic.Uint64) (func(), bool) {
	if held.Add(1) > slots {
		held.Add(-1)
		shed.Add(1)
		return nil, false
	}
	return func() { held.Add(-1) }, true
}

// ShedCounts returns cumulative refusals per gated class.
func (g *Gate) ShedCounts() (query, admin uint64) {
	if g == nil {
		return 0, 0
	}
	return g.shedQuery.Load(), g.shedAdmin.Load()
}
