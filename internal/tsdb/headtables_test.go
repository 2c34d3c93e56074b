package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/stats"
	"hpcpower/internal/trace"
)

// headTallies are the tallies checkHeadTables reads into, kept from call
// to call: a Tally is 0.6 MB, which sync.Pool does not keep under the
// race detector.
var headTallies [2]stats.Tally

// checkHeadTables pulls [from, to] twice through TallyValues — the
// second pull finds the tables the first built — and holds both to
// AppendValuesMerged, which reads every ring in place.
func checkHeadTables(t *testing.T, label string, s *Store, from, to int64) {
	t.Helper()
	want, _, err := s.AppendValuesMerged(nil, nil, from, to)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	slices.Sort(want)
	for i := range headTallies {
		tally := &headTallies[i]
		tally.Reset()
		if ok, _, err := s.TallyValues(tally, from, to); !ok || err != nil {
			t.Fatalf("%s: counted %v, err %v", label, ok, err)
		}
		var got []float64
		for _, c := range tally.Sorted() {
			for range c.N {
				got = append(got, c.V)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s, pull %d [%d, %d]: tallied %v, the rings hold %v", label, i, from, to, got, want)
		}
	}
}

// TestHeadTablesNeverStale is the property behind the head's window
// tables: after any step — appends on time, late and at equal
// timestamps into 8-point rings that evict into cached windows, a block
// store attached partway (the window shrinks from 2 h to 10 min),
// flushes, an older image installed over the store — a pull over aligned,
// unaligned and unbounded windows equals a scan of the rings.
func TestHeadTablesNeverStale(t *testing.T) {
	const win = 600
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(Config{Shards: 2, RingLen: 8})
		now := int64(8 * block.DefaultWindowSeconds)
		var image *StoreState
		var cached int
		attachAt := 40 + rng.Intn(40)
		for step := 0; step < 240; step++ {
			var what string
			switch r := rng.Intn(100); {
			case step == attachAt:
				what = "attach"
				bs, err := block.Open(block.Config{Dir: t.TempDir(), WindowSeconds: win})
				if err != nil {
					t.Fatal(err)
				}
				s.AttachBlocks(bs)
			case r < 3 && image != nil:
				what = "install"
				if err := s.InstallState(image); err != nil {
					t.Fatal(err)
				}
				image = nil
			case r < 6:
				what = "export"
				image = s.ExportState()
			case r < 12 && s.Blocks() != nil:
				what = "flush"
				if _, err := s.FlushBlocks(now - rng.Int63n(4*win)); err != nil {
					t.Fatal(err)
				}
			default:
				what = "append"
				batch := make([]trace.PowerSample, 1+rng.Intn(6))
				for i := range batch {
					ts := now
					switch rng.Intn(4) {
					case 0: // on time
						now += 30 + rng.Int63n(300)
						ts = now
					case 1: // late, by up to four windows
						ts = max(now-rng.Int63n(4*win), 1)
					case 2: // at the timestamp of the batch's last sample
						if i > 0 {
							ts = batch[i-1].Unix
						}
					}
					batch[i] = trace.PowerSample{Node: rng.Intn(5), JobID: 1, Unix: ts, PowerW: 100 + float64(rng.Intn(40))/10}
				}
				if err := s.Append(batch); err != nil {
					t.Fatal(err)
				}
			}
			w := s.heads.window.Load()
			label := fmt.Sprintf("seed %d, step %d (%s)", seed, step, what)
			k := floorDiv(now, w) - int64(rng.Intn(4))
			checkHeadTables(t, label+", aligned", s, k*w, (k+1+int64(rng.Intn(3)))*w-1)
			from := now - rng.Int63n(5*w)
			checkHeadTables(t, label+", unaligned", s, from, from+rng.Int63n(4*w))
			checkHeadTables(t, label+", unbounded", s, 0, 0)
			checkHeadTables(t, label+", open above", s, from, 0)
			cached += len(s.heads.tables)
		}
		if cached == 0 {
			t.Fatalf("seed %d: no pull cached a table", seed)
		}
	}
}

// TestHeadTablesBounded: a pull that walks more windows than the cache
// holds reads the head in place and caches nothing; a cache full of
// tables holds maxHeadTables and counts their bytes in MemoryBytes, and
// InstallState and AttachBlocks empty it.
func TestHeadTablesBounded(t *testing.T) {
	s := New(Config{Shards: 2, RingLen: 4 * maxHeadTables})
	const win = block.DefaultWindowSeconds
	var batch []trace.PowerSample
	for w := int64(1); w <= 2*maxHeadTables+1; w++ {
		batch = append(batch, trace.PowerSample{Node: 1, JobID: 1, Unix: w * win, PowerW: float64(w)})
	}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	empty := s.MemoryBytes()
	checkHeadTables(t, "every window", s, 0, 0)
	if n := len(s.heads.tables); n != 0 {
		t.Fatalf("a walk over %d windows cached %d tables", 2*maxHeadTables+1, n)
	}
	for w := int64(1); w <= 2*maxHeadTables; w += 2 {
		checkHeadTables(t, "two windows", s, w*win, (w+2)*win-1)
	}
	if n := len(s.heads.tables); n != maxHeadTables {
		t.Fatalf("%d tables cached, want %d", n, maxHeadTables)
	}
	if grown := s.MemoryBytes() - empty; grown != s.heads.cachedBytes() || grown < maxHeadTables*headTableOverheadBytes {
		t.Fatalf("MemoryBytes grew %d for %d cached bytes", grown, s.heads.cachedBytes())
	}
	if s.recountMem(); s.MemoryBytes()-empty != s.heads.cachedBytes() {
		t.Fatalf("recounted MemoryBytes misses the tables")
	}
	if err := s.InstallState(s.ExportState()); err != nil {
		t.Fatal(err)
	}
	if len(s.heads.tables) != 0 || s.heads.cachedBytes() != 0 {
		t.Fatalf("after InstallState: %d tables of %d bytes", len(s.heads.tables), s.heads.cachedBytes())
	}
	checkHeadTables(t, "after install", s, 3*win, 5*win-1)
	before, cached := s.MemoryBytes(), s.heads.cachedBytes()
	bs, err := block.Open(block.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachBlocks(bs)
	if len(s.heads.tables) != 0 || cached == 0 || s.MemoryBytes() != before-cached {
		t.Fatalf("after AttachBlocks: %d tables, MemoryBytes %d, want 0 and %d", len(s.heads.tables), s.MemoryBytes(), before-cached)
	}
}

// TestTimeRangeMatchesSearch holds the interpolating, galloping search
// to the linear filter on time-ordered runs that are even, skewed (one
// long gap, runs of equal timestamps) and short, at every bound around
// their points.
func TestTimeRangeMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var series [][]Point
	even := make([]Point, 1440)
	for i := range even {
		even[i].Unix = 1_700_000_000 + int64(i)*60
	}
	skewed := slices.Clone(even)
	for i := range skewed[1000:] {
		skewed[1000+i].Unix += 1 << 40
	}
	equal := make([]Point, 300)
	for i := range equal {
		equal[i].Unix = int64(i / 37)
	}
	random := make([]Point, 500)
	for i := 1; i < len(random); i++ {
		random[i].Unix = random[i-1].Unix + int64(rng.ExpFloat64()*float64(1+rng.Intn(3)*1000))
	}
	series = append(series, even, skewed, equal, random, even[:1], even[:2])
	for si, seg := range series {
		var bounds []int64
		for _, p := range seg {
			bounds = append(bounds, p.Unix-1, p.Unix, p.Unix+1)
		}
		bounds = append(bounds, math.MinInt64, math.MaxInt64)
		for trial := 0; trial < 400; trial++ {
			from, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
			var want []Point
			for _, p := range seg {
				if p.Unix >= from && p.Unix <= hi {
					want = append(want, p)
				}
			}
			if got := timeRange(seg, from, hi); !slices.Equal(got, want) || (len(want) > 0 && &got[0] != &seg[slices.Index(seg, want[0])]) {
				t.Fatalf("series %d, [%d, %d]: timeRange gives %d points, the filter %d", si, from, hi, len(got), len(want))
			}
		}
	}
}
