package main

import (
	"math"
	"strconv"

	"hpcpower/internal/trace"
)

// The generated fleet: 1,024 nodes reporting one sample per minute,
// shipped by two agents of 512 nodes each, so one batch is one tick of
// one agent — the shape a RAPL collector in front of a rack produces.
const (
	fleetNodes  = 1024
	agentNodes  = 512
	fleetAgents = fleetNodes / agentNodes
	tickSeconds = 60
	// fleetEpoch is tick 0. A multiple of the 2 h block window, so block
	// boundaries fall on whole ticks.
	fleetEpoch = int64(1_699_999_200)
)

// slot is a fixed group of 1–64 contiguous nodes inside one agent's
// range. A slot runs one job after another, each for period ticks, so
// job state is created and retired while the fleet runs. Slots never
// span agents: a job's samples then arrive in one agent's order, which
// makes its streaming statistics reproducible under concurrent agents.
type slot struct {
	first, n       int
	period, offset int
}

// Fleet generates samples as a pure function of (seed, node, tick), so
// the correctness oracle can recompute any sample without storing it.
type Fleet struct {
	seed       uint64
	slots      []slot
	slotOf     [fleetNodes]int32
	agentSlots [fleetAgents + 1]int // agent a owns slots [agentSlots[a], agentSlots[a+1])
	offset     [fleetNodes]float64  // per-node watts offset, −3.0 … +3.0
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewFleet lays the job slots out from the seed.
func NewFleet(seed uint64) *Fleet {
	f := &Fleet{seed: seed}
	h := mix64(seed ^ 0xf1ee7)
	for node := range f.offset {
		f.offset[node] = float64(mix64(seed^uint64(node)*0x51ed)%61)/10 - 3
	}
	for agent := 0; agent < fleetAgents; agent++ {
		f.agentSlots[agent] = len(f.slots)
		end := (agent + 1) * agentNodes
		for node := agent * agentNodes; node < end; {
			h = mix64(h)
			n := 1 + int(h%64)
			if node+n > end {
				n = end - node
			}
			h = mix64(h)
			period := 120 + int(h%1321) // 2 h – 24 h
			h = mix64(h)
			s := slot{first: node, n: n, period: period, offset: int(h % uint64(period))}
			for i := 0; i < n; i++ {
				f.slotOf[node+i] = int32(len(f.slots))
			}
			f.slots = append(f.slots, s)
			node += n
		}
	}
	f.agentSlots[fleetAgents] = len(f.slots)
	return f
}

// JobAt returns the job running on node at tick.
func (f *Fleet) JobAt(node, tick int) uint64 {
	job, _ := f.slotAt(int(f.slotOf[node]), tick)
	return job
}

// slotAt returns the job a slot runs at tick and the power level its
// nodes draw before noise: the job's base (90–260 W) times one of three
// phases across the job's lifetime.
func (f *Fleet) slotAt(si, tick int) (job uint64, level float64) {
	s := &f.slots[si]
	gen, pos := (tick+s.offset)/s.period, (tick+s.offset)%s.period
	job = uint64(1 + si + len(f.slots)*gen)
	base := 90 + float64(mix64(f.seed^job*0x9e37)%1700)/10
	return job, base * phaseLevel[pos*3/s.period]
}

var phaseLevel = [3]float64{0.92, 1.08, 0.97}

// powerOf is the watts node draws at tick given its slot's level: about
// 5 % in-phase noise and a fixed per-node offset of up to 3 W, at the
// 0.1 W resolution of the RAPL collectors — a healthy job no detector
// may alert on.
func (f *Fleet) powerOf(node, tick int, level float64) float64 {
	h := mix64(f.seed ^ uint64(node)<<32 ^ uint64(tick))
	// Sum of four 16-bit uniforms: variance 1/3, so ×√3 is unit variance.
	u := float64(h&0xffff+(h>>16)&0xffff+(h>>32)&0xffff+(h>>48)) / 65536
	z := (u - 2) * 1.7320508
	return math.Round((level*(1+0.05*z)+f.offset[node])*10) / 10
}

// PowerAt returns the watts node draws at tick.
func (f *Fleet) PowerAt(node, tick int) float64 {
	_, level := f.slotAt(int(f.slotOf[node]), tick)
	return f.powerOf(node, tick, level)
}

// TickUnix is the sample time of tick.
func TickUnix(tick int) int64 { return fleetEpoch + int64(tick)*tickSeconds }

// Batch appends the agent's samples for tick to dst[:0].
func (f *Fleet) Batch(dst []trace.PowerSample, agent, tick int) []trace.PowerSample {
	dst = dst[:0]
	t := TickUnix(tick)
	for si := f.agentSlots[agent]; si < f.agentSlots[agent+1]; si++ {
		s := &f.slots[si]
		job, level := f.slotAt(si, tick)
		for node := s.first; node < s.first+s.n; node++ {
			dst = append(dst, trace.PowerSample{Node: node, JobID: job, Unix: t, PowerW: f.powerOf(node, tick, level)})
		}
	}
	return dst
}

// AgentName is the delivery identity of an agent.
func AgentName(agent int) string { return "agent-" + strconv.Itoa(agent) }

// AppendBatch appends the POST /v1/samples body for the batch to dst —
// the wire form of trace.SampleBatch without reflection, so a client
// that reuses dst encodes without allocating.
func AppendBatch(dst []byte, agent string, seq uint64, samples []trace.PowerSample) []byte {
	dst = append(dst, `{"agent":"`...)
	dst = append(dst, agent...)
	dst = append(dst, `","seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"samples":[`...)
	for i := range samples {
		s := &samples[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"node":`...)
		dst = strconv.AppendInt(dst, int64(s.Node), 10)
		dst = append(dst, `,"job":`...)
		dst = strconv.AppendUint(dst, s.JobID, 10)
		dst = append(dst, `,"t":`...)
		dst = strconv.AppendInt(dst, s.Unix, 10)
		dst = append(dst, `,"w":`...)
		dst = appendWatts(dst, s.PowerW)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendWatts appends w as JSON. Collector readings are whole tenths of
// a watt; those are written digit by digit, which is several times
// cheaper than the shortest-representation search of AppendFloat.
func appendWatts(dst []byte, w float64) []byte {
	tenths := int64(math.Round(w * 10))
	if w < 0 || float64(tenths)/10 != w {
		return strconv.AppendFloat(dst, w, 'f', -1, 64)
	}
	dst = strconv.AppendInt(dst, tenths/10, 10)
	return append(dst, '.', byte('0'+tenths%10))
}
