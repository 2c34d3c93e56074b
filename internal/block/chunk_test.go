package block

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hpcpower/internal/stats"
)

// randPoints generates a sample stream with the shapes real telemetry
// takes: mostly regular cadence with occasional gaps/jitter, mostly
// slowly-varying quantized values with occasional jumps — plus pure
// adversarial noise at higher temperatures.
func randPoints(rng *rand.Rand, n int, adversarial bool) []Point {
	pts := make([]Point, 0, n)
	t := int64(1600000000) + rng.Int63n(1000)
	v := 100 + 200*rng.Float64()
	for i := 0; i < n; i++ {
		if adversarial {
			t += rng.Int63n(1<<20) - 1<<19
			v = math.Float64frombits(rng.Uint64())
		} else {
			t += 60
			if rng.Intn(10) == 0 {
				t += rng.Int63n(600) - 300
			}
			if rng.Intn(4) == 0 {
				v = math.Round((v+rng.Float64()*20-10)*10) / 10
			}
		}
		pts = append(pts, Point{T: t, V: v})
	}
	return pts
}

// TestChunkEncoderMatchesEncodeChunk: the point-by-point encoder writes
// EncodeChunk's bytes, after whatever its buffer already held.
func TestChunkEncoderMatchesEncodeChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var e ChunkEncoder
	for trial := 0; trial < 100; trial++ {
		pts := randPoints(rng, rng.Intn(300), trial%5 == 4)
		prefix := []byte("prefix")[:trial%7]
		e.Reset(append([]byte(nil), prefix...), len(pts))
		for _, p := range pts {
			e.Add(p.T, p.V)
		}
		got, want := e.Bytes(), EncodeChunk(pts)
		if string(got[:len(prefix)]) != string(prefix) || string(got[len(prefix):]) != string(want) {
			t.Fatalf("trial %d: %d points after a %d-byte prefix encode differently from EncodeChunk", trial, len(pts), len(prefix))
		}
	}
}

func TestChunkRoundTripLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(500)
		pts := randPoints(rng, n, trial%5 == 4)
		enc := EncodeChunk(pts)
		dec, err := DecodeChunk(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(dec) != len(pts) {
			t.Fatalf("trial %d: got %d points, want %d", trial, len(dec), len(pts))
		}
		for i := range pts {
			if dec[i].T != pts[i].T {
				t.Fatalf("trial %d point %d: t=%d want %d", trial, i, dec[i].T, pts[i].T)
			}
			// Bit-level comparison: NaNs and -0 must survive exactly.
			if math.Float64bits(dec[i].V) != math.Float64bits(pts[i].V) {
				t.Fatalf("trial %d point %d: v=%x want %x", trial, i,
					math.Float64bits(dec[i].V), math.Float64bits(pts[i].V))
			}
		}
	}
}

func TestChunkEmptyAndSingle(t *testing.T) {
	for _, pts := range [][]Point{{}, {{T: 1600000000, V: 250.5}}} {
		dec, err := DecodeChunk(EncodeChunk(pts))
		if err != nil {
			t.Fatalf("decode %d points: %v", len(pts), err)
		}
		if len(dec) != len(pts) {
			t.Fatalf("got %d points, want %d", len(dec), len(pts))
		}
	}
}

// TestChunkReadsStopPastWindow: every chunk reader stops decoding at the
// first point past the window's end — WriteRaw guarantees a chunk is in
// time order, so nothing after it can be inside. An out-of-order chunk,
// which WriteRaw refuses, shows where they stop.
func TestChunkReadsStopPastWindow(t *testing.T) {
	payload := EncodeChunk([]Point{{T: 60, V: 1}, {T: 120, V: 2}, {T: 240, V: 3}, {T: 180, V: 4}})
	pts, err := appendChunkPoints(nil, payload, 90, 200, func(t int64, v float64) Point { return Point{T: t, V: v} })
	if err != nil || !slices.Equal(pts, []Point{{T: 120, V: 2}}) {
		t.Fatalf("points %v, err %v", pts, err)
	}
	vals, err := appendChunkValues(nil, payload, 90, 200)
	if err != nil || !slices.Equal(vals, []float64{2}) {
		t.Fatalf("values %v, err %v", vals, err)
	}
	tally := stats.GetTally()
	defer stats.PutTally(tally)
	if err := tallyChunkValues(tally, payload, 90, 200); err != nil || !slices.Equal(tally.Sorted(), []stats.ValueCount{{V: 2, N: 1}}) {
		t.Fatalf("tally %v, err %v", tally.Sorted(), err)
	}
}

func TestAggChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		raw := randPoints(rng, rng.Intn(2000), false)
		aggs := Rollup(raw, 300)
		enc := EncodeAggChunk(aggs)
		dec, err := DecodeAggChunk(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(dec) != len(aggs) {
			t.Fatalf("trial %d: got %d aggs, want %d", trial, len(dec), len(aggs))
		}
		for i := range aggs {
			if dec[i] != aggs[i] {
				t.Fatalf("trial %d agg %d: %+v want %+v", trial, i, dec[i], aggs[i])
			}
		}
	}
}

// TestRollupExactVsBruteForce is the satellite property: every 5m/1h
// rollup aggregate equals the brute-force aggregate of the raw points it
// covers — count/sum/min/max exactly.
func TestRollupExactVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		raw := randPoints(rng, 1+rng.Intn(3000), false)
		for _, step := range []int64{300, 3600} {
			aggs := Rollup(raw, step)
			var total int64
			for _, a := range aggs {
				bucketLo := a.T
				bucketHi := a.T + step
				// Brute force over the raw slice in its original order.
				var count int64
				var sum float64
				mn, mx := math.Inf(1), math.Inf(-1)
				for _, p := range raw {
					if p.T < bucketLo || p.T >= bucketHi {
						continue
					}
					count++
					sum += p.V
					mn = math.Min(mn, p.V)
					mx = math.Max(mx, p.V)
				}
				if a.Count != count {
					t.Fatalf("step %d bucket %d: count %d want %d", step, a.T, a.Count, count)
				}
				if a.Sum != sum {
					t.Fatalf("step %d bucket %d: sum %v want %v (exact)", step, a.T, a.Sum, sum)
				}
				if a.Min != mn || a.Max != mx {
					t.Fatalf("step %d bucket %d: min/max %v/%v want %v/%v", step, a.T, a.Min, a.Max, mn, mx)
				}
				total += count
			}
			if total != int64(len(raw)) {
				t.Fatalf("step %d: buckets cover %d points, want %d", step, total, len(raw))
			}
		}
	}
}

func TestRollupNegativeTimestampAlignment(t *testing.T) {
	pts := []Point{{T: -10, V: 1}, {T: -301, V: 2}, {T: 5, V: 3}}
	aggs := Rollup(pts, 300)
	for _, a := range aggs {
		if a.T%300 != 0 {
			t.Fatalf("bucket %d not step-aligned", a.T)
		}
		if a.T > 5 || a.T < -600 {
			t.Fatalf("bucket %d out of expected range", a.T)
		}
	}
}

func TestVarBitsLadder(t *testing.T) {
	vals := []uint64{0, 1, 255, 256, 65535, 65536, 1 << 31, 1 << 32, math.MaxUint64}
	w := &bitWriter{}
	for _, v := range vals {
		writeVarBits(w, v)
	}
	r := &bitReader{b: w.b}
	for _, want := range vals {
		if got := readVarBits(r); got != want || r.eof {
			t.Fatalf("got %d (eof %v) want %d", got, r.eof, want)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		if unzigzag(zigzag(v)) != v {
			t.Fatalf("zigzag round trip failed for %d", v)
		}
	}
}

func TestDecodeChunkRejectsAbsurdCount(t *testing.T) {
	// A uvarint count far beyond what the payload could hold must be
	// rejected before any allocation.
	enc := EncodeChunk([]Point{{T: 1, V: 2}})
	enc[0] = 0xff
	enc = append([]byte{0xff, 0xff, 0xff, 0x7f}, enc[1:]...)
	if _, err := DecodeChunk(enc); err == nil {
		t.Fatal("absurd count accepted")
	}
}

// claimChunk builds a payload whose uvarint header claims `count`
// points over a zeroed body. All-zero bits form a valid stream (first
// point 0/0.0, then 1-bit "repeat" codes), so a claim inside the
// minimum-size bound decodes and one past it must be rejected by the
// bound itself, not by a later decode error.
func claimChunk(count uint64, bodyBytes int) []byte {
	return append(binary.AppendUvarint(nil, count), make([]byte, bodyBytes)...)
}

func TestDecodeBoundsTightPerPointCost(t *testing.T) {
	const bodyBytes = 1000 // 8000 bits
	// Raw: 128 bits for the first point, ≥2 per later point →
	// at most 1+(8000−128)/2 = 3937 points.
	if _, err := DecodeChunk(claimChunk(3937, bodyBytes)); err != nil {
		t.Fatalf("densest possible raw claim rejected: %v", err)
	}
	if _, err := DecodeChunk(claimChunk(3938, bodyBytes)); err == nil {
		t.Fatal("raw claim past the 2-bit-per-point minimum accepted")
	}
	// Agg: 257 bits for the first point, ≥5 per later point →
	// at most 1+(8000−257)/5 = 1549 points.
	if _, err := DecodeAggChunk(claimChunk(1549, bodyBytes)); err != nil {
		t.Fatalf("densest possible agg claim rejected: %v", err)
	}
	if _, err := DecodeAggChunk(claimChunk(1550, bodyBytes)); err == nil {
		t.Fatal("agg claim past the 5-bit-per-point minimum accepted")
	}
}
