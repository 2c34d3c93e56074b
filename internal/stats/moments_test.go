package stats

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"hpcpower/internal/rng"
)

// TestMomentsGridExact: a reading on the 0.1 W grid codes to its step
// count times 2³², so a constant job's mean is its reading and its
// variance 0.
func TestMomentsGridExact(t *testing.T) {
	for k := 0; k < 1<<19; k += 7 {
		w := float64(k) / 10
		if p, ok := fixedCode(w); !ok || p != uint64(k)<<32 {
			t.Fatalf("%v W codes to %d, want %d", w, p, uint64(k)<<32)
		}
		var m Moments
		for range 3 {
			m.Add(w)
		}
		if m.Mean() != w || m.Variance() != 0 {
			t.Fatalf("three readings of %v W: mean %v, variance %v", w, m.Mean(), m.Variance())
		}
	}
	var m Moments
	for _, w := range []float64{192.5, 192.6, 192.7} {
		m.Add(w)
	}
	if want := math.Sqrt(0.02 / 3); m.Mean() != 192.6 || math.Abs(m.Std()-want) > 1e-15*want {
		t.Errorf("mean %v std %v, want 192.6 and %v", m.Mean(), m.Std(), want)
	}
}

// TestMomentsValid: the fields of any Adds are valid, and each kind of
// field no Adds can give is refused.
func TestMomentsValid(t *testing.T) {
	var m Moments
	if !m.Valid() {
		t.Fatal("the empty accumulator is invalid")
	}
	for _, w := range []float64{120.5, 0.3, 3e4, 77.7} {
		m.Add(w)
	}
	over := m
	over.Add(1e300)
	for name, good := range map[string]Moments{"readings": m, "overflowed": over} {
		if !good.Valid() {
			t.Errorf("%s: %+v is invalid", name, good)
		}
	}
	for name, bend := range map[string]func(*Moments){
		"negative count":      func(m *Moments) { m.N = -1 },
		"empty with a sum":    func(m *Moments) { m.N = 0 },
		"min above max":       func(m *Moments) { m.Min = m.Max + 1 },
		"NaN min":             func(m *Moments) { m.Min = math.NaN() },
		"over without reason": func(m *Moments) { m.Over = true },
		"sum below N·min":     func(m *Moments) { m.Sum = [2]uint64{} },
		"sum above N·max":     func(m *Moments) { m.Sum[0]++ },
		"sum of squares low":  func(m *Moments) { m.SumSq = [3]uint64{} },
	} {
		bent := m
		bend(&bent)
		if bent.Valid() {
			t.Errorf("%s: %+v passed", name, bent)
		}
	}
}

// TestMomentsAddAllocFree: Add is on the ingest path.
func TestMomentsAddAllocFree(t *testing.T) {
	var m Moments
	if n := testing.AllocsPerRun(100, func() { m.Add(187.3) }); n != 0 {
		t.Errorf("Add allocates %v times", n)
	}
}

// readings turns fuzz bytes into readings, nine bytes each: a flag byte,
// then a reading on the 0.1 W grid (flag even, from two bytes) or any
// float64 but NaN (flag odd, from eight), which Moments does not take.
func readings(data []byte) []float64 {
	var ws []float64
	for ; len(data) >= 9; data = data[9:] {
		if data[0]&1 == 0 {
			ws = append(ws, float64(binary.LittleEndian.Uint16(data[1:]))/10)
		} else if w := math.Float64frombits(binary.LittleEndian.Uint64(data[1:])); !math.IsNaN(w) {
			ws = append(ws, w)
		}
	}
	return ws
}

// reference is what Moments must answer for ws, by math/big over the
// same codes: Σp and N·Σp² − (Σp)² exactly, each rounded once to float64
// and then scaled as Mean and Variance scale them.
func reference(ws []float64) (mean, variance float64) {
	sum, sq := new(big.Int), new(big.Int)
	for _, w := range ws {
		x := w * fixedScale
		if !(x >= 0 && x < 1<<63) {
			return math.Inf(1), math.Inf(1)
		}
		p := new(big.Int).SetUint64(uint64(math.Round(x)))
		sum.Add(sum, p)
		sq.Add(sq, p.Mul(p, p))
	}
	n := float64(len(ws))
	total, _ := new(big.Float).SetInt(sum).Float64()
	d := new(big.Int).Sub(sq.Mul(sq, big.NewInt(int64(len(ws)))), new(big.Int).Mul(sum, sum))
	df, _ := new(big.Float).SetInt(d).Float64()
	return total / n / fixedScale, math.Ldexp(df, -64) / n / n / 100
}

// FuzzMoments: the state depends on the multiset of readings alone — any
// permutation, and any split merged back, gives the same accumulator to
// the bit — and the mean and variance equal a math/big reference over the
// same codes.
func FuzzMoments(f *testing.F) {
	const maxFixed = 1 << 63 / float64(fixedScale) // the least reading without a code
	grid := func(ks ...uint16) []byte {
		var b []byte
		for _, k := range ks {
			b = append(b, 0)
			b = binary.LittleEndian.AppendUint16(b, k)
			b = append(b, make([]byte, 6)...)
		}
		return b
	}
	float := func(b []byte, ws ...float64) []byte {
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(append(b, 1), math.Float64bits(w))
		}
		return b
	}
	f.Add(grid(1926, 1925, 1927, 1500, 65535), uint64(1))
	f.Add(float(nil, 150.123456789, 0.1, 199.99999999999997, 3.3e-5), uint64(2))
	f.Add(float(grid(0, 0, 0)), uint64(3))
	f.Add(float(grid(2000, 2001), 1e300, 5), uint64(4))
	f.Add(float(nil, maxFixed, math.Nextafter(maxFixed, 0), 2e8), uint64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		ws := readings(data)
		var whole Moments
		for _, w := range ws {
			whole.Add(w)
		}
		src := rng.New(seed)
		shuffled := append([]float64(nil), ws...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(src.Uint64() % uint64(i+1))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		var perm, left, right Moments
		cut := 0
		if len(ws) > 0 {
			cut = int(seed % uint64(len(ws)+1))
		}
		for i, w := range shuffled {
			perm.Add(w)
			if i < cut {
				left.Add(w)
			} else {
				right.Add(w)
			}
		}
		left.Merge(&right)
		if perm != whole || left != whole {
			t.Fatalf("in order %+v, permuted %+v, split at %d and merged %+v", whole, perm, cut, left)
		}
		if len(ws) == 0 {
			return
		}
		if !whole.Valid() {
			t.Fatalf("%+v is invalid", whole)
		}
		mean, variance := reference(ws)
		if got := whole.Mean(); got != mean {
			t.Fatalf("mean %v, reference %v", got, mean)
		}
		if got := whole.Variance(); got != variance {
			t.Fatalf("variance %v, reference %v", got, variance)
		}
	})
}
