package main

import (
	"encoding/json"
	"hash/crc32"
	"sort"
	"sync"
	"time"
)

// The machines this benchmark runs on share their cores with other
// tenants, and for minutes at a time every CPU-bound thing on them runs
// 20–40 % slower (measured: the same recover-crash image replayed in
// 715 ms and in 1,104 ms within four minutes, its CPU time per sample
// up by the same 48 %). No amount of work inside a 10 s run averages
// that out. So every run clocks a reference kernel — standard library
// only, so no change to the repository can touch it — right before and
// after every round and every set-up, and reports each time as it would
// have been on a machine that runs the kernel in refNominal:
//
//	reported = measured × refNominal ÷ kernel time around the measurement
//
// The kernel mixes what the workloads do — reflective JSON decoding,
// sorting, map inserts, a checksum over a buffer larger than L1 — and
// runs on every core at once, as the workloads do.

// refNominal is the kernel's time on this class of machine when it is
// quiet; it only fixes the scale the reported times are in.
const refNominal = 14 * time.Millisecond

type refPoint struct {
	Node int     `json:"node"`
	T    int64   `json:"t"`
	W    float64 `json:"w"`
}

var refDoc = func() []byte {
	pts := make([]refPoint, 400)
	for i := range pts {
		pts[i] = refPoint{Node: i, T: 1_700_000_000 + int64(i)*60, W: float64(mix64(uint64(i))%3000) / 10}
	}
	doc, _ := json.Marshal(pts) // plain structs: cannot fail
	return doc
}()

// refKernel is one pass of the reference work on one core.
func refKernel(scratch []float64, buf []byte) uint64 {
	var sink uint64
	for rep := 0; rep < 12; rep++ {
		var pts []refPoint
		_ = json.Unmarshal(refDoc, &pts) // refDoc is valid by construction
		sink += uint64(len(pts))
		for i := range scratch {
			scratch[i] = float64(mix64(uint64(i+rep)) % 100000)
		}
		sort.Float64s(scratch)
		m := make(map[uint64]int, 64)
		for i := 0; i < 4000; i++ {
			m[mix64(uint64(i))%2048] += i
		}
		sink += uint64(len(m)) + uint64(crc32.ChecksumIEEE(buf))
	}
	return sink
}

// calibrate returns the kernel's wall time, run on two goroutines at
// once (the workloads keep two cores busy): the best of three, since an
// interruption can only ever add to it.
func calibrate() time.Duration {
	best := time.Duration(1<<63 - 1)
	for try := 0; try < 3; try++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refKernel(make([]float64, 8192), make([]byte, 256<<10))
			}()
		}
		wg.Wait()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// speed is the factor measured times are multiplied with, given the
// kernel's time before and after the measurement.
func speed(before, after time.Duration) float64 {
	return float64(refNominal) / (float64(before+after) / 2)
}
