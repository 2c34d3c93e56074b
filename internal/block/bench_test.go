package block

import (
	"math"
	"math/rand"
	"testing"

	"hpcpower/internal/stats"
)

// ringBytesPerSample is the in-memory cost of one retained sample in the
// tsdb ring (unix int64 + watts float64) — the baseline the block store
// is measured against.
const ringBytesPerSample = 16

// synthNodeDay generates one node-day of per-minute power telemetry with
// the structure the paper reports: phase-structured levels (jobs starting
// and stopping), readings quantized at 0.1 W, and low within-phase
// variability. rng state carries across calls so phases span days.
type synthGen struct {
	rng     *rand.Rand
	level   float64
	holdFor int
}

func newSynthGen(seed int64, node int) *synthGen {
	g := &synthGen{rng: rand.New(rand.NewSource(seed + int64(node)*7919))}
	g.nextPhase()
	return g
}

func (g *synthGen) nextPhase() {
	// Idle floor around 90 W, busy phases up to ~350 W, quantized 0.1 W.
	g.level = math.Round((90+g.rng.Float64()*260)*10) / 10
	g.holdFor = 30 + g.rng.Intn(210) // 30 min – 4 h
}

func (g *synthGen) sample() float64 {
	if g.holdFor == 0 {
		g.nextPhase()
	}
	g.holdFor--
	// Occasional quantized wander within a phase — RAPL per-minute
	// averages are stable but not frozen.
	if g.rng.Intn(16) == 0 {
		g.level = math.Round((g.level+g.rng.Float64()*0.6-0.3)*10) / 10
	}
	return g.level
}

// synthWindow produces one window of per-minute points for the nodes.
func synthWindow(gens map[int]*synthGen, windowStart, windowLen int64) map[int][]Point {
	series := map[int][]Point{}
	for node, g := range gens {
		pts := make([]Point, 0, windowLen/60)
		for ts := windowStart; ts < windowStart+windowLen; ts += 60 {
			pts = append(pts, Point{T: ts, V: g.sample()})
		}
		series[node] = pts
	}
	return series
}

// TestFiveMonthCompressionRatio is the acceptance gate: a 5-month
// synthetic per-minute workload must land at ≤ 1/10th the ring's
// 16 bytes/sample once sealed into raw blocks — including all framing,
// index, and trailer overhead.
func TestFiveMonthCompressionRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-month workload")
	}
	const (
		days   = 153 // 5 months
		nodes  = 4
		window = 24 * 3600 // day-sized blocks keep the file count sane
	)
	s := newTestStore(t, Config{WindowSeconds: window})
	gens := map[int]*synthGen{}
	for n := 0; n < nodes; n++ {
		gens[n] = newSynthGen(42, n)
	}
	for d := 0; d < days; d++ {
		ws := int64(d) * window
		if _, err := s.WriteRaw(ws, synthWindow(gens, ws, window)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	wantSamples := int64(days * nodes * 1440)
	if st.Raw.Samples != wantSamples {
		t.Fatalf("stored %d samples, want %d", st.Raw.Samples, wantSamples)
	}
	ratio := ringBytesPerSample / st.BytesPerSample
	t.Logf("raw tier: %d blocks, %d bytes, %d samples → %.3f bytes/sample (ring %.0f, %.1fx reduction)",
		st.Raw.Blocks, st.Raw.Bytes, st.Raw.Samples, st.BytesPerSample, float64(ringBytesPerSample), ratio)
	if ratio < 10 {
		t.Fatalf("compression ratio %.1fx vs ring, want ≥ 10x (%.3f bytes/sample)", ratio, st.BytesPerSample)
	}
}

// BenchmarkBlockEncode measures sealing one node's 2h window (120
// per-minute points) into a Gorilla chunk, reporting the on-wire cost.
func BenchmarkBlockEncode(b *testing.B) {
	g := newSynthGen(7, 0)
	pts := make([]Point, 0, 120)
	for ts := int64(0); ts < 7200; ts += 60 {
		pts = append(pts, Point{T: ts, V: g.sample()})
	}
	var encoded []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(pts)) * ringBytesPerSample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoded = EncodeChunk(pts)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(encoded))/float64(len(pts)), "bytes/sample")
	if _, err := DecodeChunk(encoded); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChunkDecode measures decoding one node's 2h window back into
// points (ns/point): quantized is the phase-structured 0.1 W telemetry
// of synthGen, where most values repeat; noisy re-draws every value, so
// every point pays a full XOR window — the upper end of what a chunk
// costs to read; fleet is the end-to-end benchmark's readings, 0.1 W
// with 5 % noise, the chunks a restart and a query decode. tally is a
// windowed read of a fleet chunk into a stats.Tally, as a distribution
// query's edge blocks are read: its ns/point counts the points decoded,
// the one past the window included.
func BenchmarkChunkDecode(b *testing.B) {
	g := newSynthGen(7, 0)
	rng := rand.New(rand.NewSource(7))
	quantized, noisy := make([]Point, 120), make([]Point, 120)
	for i := range quantized {
		ts := int64(i) * 60
		quantized[i] = Point{T: ts, V: g.sample()}
		noisy[i] = Point{T: ts, V: math.Round((200+rng.NormFloat64()*10)*10) / 10}
	}
	fleet := fleetPoints(rng, 120)
	for _, c := range []struct {
		name string
		pts  []Point
	}{{"quantized", quantized}, {"noisy", noisy}, {"fleet", fleet}} {
		b.Run(c.name, func(b *testing.B) {
			chunk := EncodeChunk(c.pts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pts, err := DecodeChunk(chunk)
				if err != nil || len(pts) != len(c.pts) {
					b.Fatalf("decoded %d points, err %v", len(pts), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.pts)), "ns/point")
		})
	}
	b.Run("tally", func(b *testing.B) {
		chunk := EncodeChunk(fleet)
		from, hi := fleet[30].T, fleet[89].T
		tally := stats.GetTally()
		defer stats.PutTally(tally)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tally.Reset()
			if err := tallyChunkValues(tally, chunk, from, hi); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*91), "ns/point")
	})
}

// BenchmarkRangeScan measures a one-day range query over a week of
// sealed per-minute blocks — the hot path behind /v1/query/range.
func BenchmarkRangeScan(b *testing.B) {
	const window = 7200
	s, err := Open(Config{Dir: b.TempDir(), WindowSeconds: window})
	if err != nil {
		b.Fatal(err)
	}
	gens := map[int]*synthGen{0: newSynthGen(3, 0), 1: newSynthGen(3, 1)}
	for w := 0; w < 7*12; w++ { // 7 days of 2h windows
		ws := int64(w) * window
		if _, err := s.WriteRaw(ws, synthWindow(gens, ws, window)); err != nil {
			b.Fatal(err)
		}
	}
	q := s.Querier()
	b.ReportAllocs()
	b.ResetTimer()
	var pts []Point
	for i := 0; i < b.N; i++ {
		day := int64(i%6) * 86400
		pts, _, err = q.Range(0, day, day+86400-1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(pts) != 1440 {
		b.Fatalf("scan returned %d points, want 1440", len(pts))
	}
	b.ReportMetric(float64(len(pts)), "points/op")
}
