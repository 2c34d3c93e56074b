package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"hpcpower/internal/anomaly"
	"hpcpower/internal/stats"
	"hpcpower/internal/tsdb"
)

// Snapshot payload, version 4 — what a snapshot file carries after the
// wal package's header and CRC, and what GET /v1/repl/snapshot serves:
//
//	"PSNI"  version(4)  headLen[u32le]  head  jobsLen[u32le]  jobs  nodes
//
// head is the LSN frontiers, the store's counters and shard accumulators,
// the dedup index and the alert-engine state; jobs is every job of the
// store, its quantile table inline; nodes is the rings, in the binary
// form tsdb.StoreState.AppendNodes documents, running to the end of the
// payload. In head and jobs every field is written in the order its
// struct declares it: a uint64 and a bool as a uvarint, any other
// integer as a zigzag varint (binary.AppendVarint), a float64 as its
// IEEE 754 bits in eight little-endian bytes (±Inf and NaN as they are),
// a string or a slice as a uvarint length and its elements, a pointer as
// a bool saying whether it is set, then what it points to, and a table's
// counts as metaCodec.counts documents. A struct embedded in another is
// written where it is declared, its fields in their order.
// Version 3, whose jobs and shards held Welford moments and per-sample
// fingerprints, is snapimage_v3.go's.
const (
	snapImageMagic   = "PSNI"
	snapImageVersion = 4
)

// encodeSnapshotImage is the one writer of snapshot payloads. img.Store
// must be set: the rings are what the format exists for.
func encodeSnapshotImage(img *snapshotImage) ([]byte, error) {
	c := metaCodec{b: append([]byte(snapImageMagic), snapImageVersion)}
	for _, section := range [...]func(){
		func() { c.head(img) },
		func() { slice(&c, &img.Store.Jobs, minJobBytes, (*metaCodec).job) },
	} {
		at := len(c.b)
		c.b = append(c.b, 0, 0, 0, 0)
		section()
		n := len(c.b) - at - 4
		if n > math.MaxUint32 {
			return nil, fmt.Errorf("snapshot image: a %d-byte section does not fit its length", n)
		}
		binary.LittleEndian.PutUint32(c.b[at:], uint32(n))
	}
	return img.Store.AppendNodes(c.b), nil
}

// decodeSnapshotImage is the one reader: versions 4 and 3, by their
// magic. The jobs are decoded on a goroutine of their own while
// DecodeNodes' workers decode the rings; the error is the one a reader
// going section by section would stop at.
func decodeSnapshotImage(payload []byte) (*snapshotImage, error) {
	if len(payload) <= len(snapImageMagic) || string(payload[:len(snapImageMagic)]) != snapImageMagic {
		return nil, fmt.Errorf("snapshot image: this build reads versions 3 and %d, which start %q", snapImageVersion, snapImageMagic)
	}
	version := payload[len(snapImageMagic)]
	if version != snapImageVersion && version != 3 {
		return nil, fmt.Errorf("snapshot image version %d, this build reads versions 3 and %d", version, snapImageVersion)
	}
	c := metaCodec{b: payload[len(snapImageMagic)+1:], dec: true, v3: version == 3}
	minJob := minJobBytes
	if c.v3 {
		minJob = minJobBytesV3
	}
	head, jobs := c.section(), c.section()
	if c.err != nil {
		return nil, fmt.Errorf("snapshot image: %w", c.err)
	}
	img := &snapshotImage{Store: &tsdb.StoreState{}}
	head.head(img)
	if err := head.done("head"); err != nil {
		return nil, err
	}
	jobsDone := make(chan error)
	go func() {
		slice(&jobs, &img.Store.Jobs, minJob, (*metaCodec).job)
		jobsDone <- jobs.done("jobs")
	}()
	nodesErr := img.Store.DecodeNodes(c.b)
	if err := <-jobsDone; err != nil {
		return nil, err
	}
	if nodesErr != nil {
		return nil, nodesErr
	}
	return img, nil
}

// metaCodec writes the fields of head and jobs or, with dec set, reads
// them back: each struct's layout is one method for both directions, so
// writer and reader cannot disagree on it. A read's first error sticks
// (every read after it yields zero), and done reports it once.
type metaCodec struct {
	b   []byte
	dec bool
	v3  bool // reading a version-3 image
	err error
}

func (c *metaCodec) fail(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, a...)
	}
	c.b = nil
}

func (c *metaCodec) uint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("a varint is cut short or overflows")
		x, n = 0, 0
	}
	*v, c.b = x, c.b[n:]
}

// integer codes any integer type but uint64; a value read that its type
// cannot hold is an error.
func integer[T ~int | ~int8 | ~int32 | ~int64 | ~uint8](c *metaCodec, v *T) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, int64(*v))
		return
	}
	x, n := binary.Varint(c.b)
	if n <= 0 || int64(T(x)) != x {
		c.fail("a varint is cut short, overflows or does not fit a %T", *v)
		x, n = 0, 0
	}
	*v, c.b = T(x), c.b[n:]
}

func (c *metaCodec) float(v *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
	} else if len(c.b) < 8 {
		c.fail("a float is cut short")
		*v = 0
	} else {
		*v, c.b = math.Float64frombits(binary.LittleEndian.Uint64(c.b)), c.b[8:]
	}
}

func (c *metaCodec) bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	if c.uint(&x); x > 1 {
		c.fail("bool %d", x)
	}
	if c.dec {
		*v = x == 1
	}
}

func (c *metaCodec) str(v *string) {
	n := uint64(len(*v))
	if c.uint(&n); !c.dec {
		c.b = append(c.b, *v...)
	} else if n > uint64(len(c.b)) {
		c.fail("a %d-byte string, %d bytes left", n, len(c.b))
	} else {
		*v, c.b = string(c.b[:n]), c.b[n:]
	}
}

// slice codes a slice of elements that each take at least minBytes: a
// length read is checked against the bytes left before anything is
// allocated.
func slice[T any](c *metaCodec, s *[]T, minBytes int, each func(*metaCodec, *T)) {
	n := uint64(len(*s))
	if c.uint(&n); c.dec {
		if n > uint64(len(c.b)/minBytes) {
			c.fail("%d elements of at least %d bytes, %d bytes left", n, minBytes, len(c.b))
		}
		if *s = nil; c.err != nil || n == 0 {
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		if each(c, &(*s)[i]); c.err != nil {
			*s = nil
			return
		}
	}
}

// optional codes a pointer: whether it is set, then what it points to.
func optional[T any](c *metaCodec, p **T, each func(*metaCodec, *T)) {
	set := *p != nil
	if c.bool(&set); !set {
		return
	}
	if c.dec {
		*p = new(T)
	}
	each(c, *p)
}

// counts codes a table's counts, most of the jobs section's values, in a
// loop of their own: their number, then each count as a uvarint, but a
// run of zeros as one 0 and the run's length less one. A dense table
// takes a byte or two a bucket, a sparse one a few bytes a bucket in use.
func (c *metaCodec) counts(v *[]uint32) {
	n := uint64(len(*v))
	if c.uint(&n); !c.dec {
		for i := 0; i < len(*v); i++ {
			c.b = binary.AppendUvarint(c.b, uint64((*v)[i]))
			if (*v)[i] == 0 {
				run := i
				for i+1 < len(*v) && (*v)[i+1] == 0 {
					i++
				}
				c.b = binary.AppendUvarint(c.b, uint64(i-run))
			}
		}
		return
	}
	if n > tsdb.MaxTableBuckets {
		c.fail("%d counts, at most %d", n, tsdb.MaxTableBuckets)
	}
	if c.err != nil || n == 0 {
		return
	}
	counts, b := make([]uint32, n), c.b
	for i := uint64(0); i < n; {
		x, k := binary.Uvarint(b)
		if k <= 0 || x > math.MaxUint32 {
			c.fail("a count is cut short or exceeds a uint32")
			return
		}
		if b = b[k:]; x != 0 {
			counts[i] = uint32(x)
			i++
			continue
		}
		run, k := binary.Uvarint(b)
		if k <= 0 || run >= n-i {
			c.fail("a run of zeros is cut short or runs past bucket %d of %d", i, n)
			return
		}
		b, i = b[k:], i+run+1
	}
	*v, c.b = counts, b
}

// section splits off a section encodeSnapshotImage framed.
func (c *metaCodec) section() metaCodec {
	if len(c.b) < 4 || uint64(binary.LittleEndian.Uint32(c.b)) > uint64(len(c.b)-4) {
		c.fail("a section length is cut short or runs past the payload")
		return metaCodec{dec: true, v3: c.v3, err: c.err}
	}
	n := 4 + int(binary.LittleEndian.Uint32(c.b))
	s := metaCodec{b: c.b[4:n], dec: true, v3: c.v3}
	c.b = c.b[n:]
	return s
}

// done is a section's error: the first read that failed, or bytes left
// behind the last field.
func (c *metaCodec) done(section string) error {
	if c.err == nil && len(c.b) != 0 {
		c.err = fmt.Errorf("%d bytes after the last field", len(c.b))
	}
	if c.err != nil {
		return fmt.Errorf("snapshot image %s: %w", section, c.err)
	}
	return nil
}

// The least each element takes, which bounds what a count may claim.
const (
	minMomentsBytes = 1 + 5 + 2*8 + 1
	minMinuteBytes  = 1 + minMomentsBytes
	minJobBytes     = 1 + 2*minMomentsBytes + 6 + minTrendBytes
	minTrendBytes   = 6*8 + 4 + 8 + 8
	minAlertBytes   = 8 + 2*8
	minEventBytes   = 11 + 2*8
)

// head: the frontiers, the store but for its jobs and rings, dedup and
// the alert engine.
func (c *metaCodec) head(img *snapshotImage) {
	c.uint(&img.AppliedLSN)
	slice(c, &img.Extras, 1, (*metaCodec).uint)
	c.uint(&img.ReplLSN)
	slice(c, &img.ReplExtras, 1, (*metaCodec).uint)
	st := img.Store
	integer(c, &st.Shards)
	integer(c, &st.RingLen)
	integer(c, &st.Ingested)
	integer(c, &st.BlockFrontier)
	if c.v3 {
		slice(c, &st.ShardAccs, minAccBytesV3, (*metaCodec).accV3)
	} else {
		slice(c, &st.ShardAccs, minMomentsBytes, (*metaCodec).moments)
	}
	optional(c, &img.Dedup, func(c *metaCodec, d *tsdb.DeduperState) {
		c.uint(&d.Window)
		integer(c, &d.MaxAgents)
		c.uint(&d.Clock)
		slice(c, &d.Agents, 5, func(c *metaCodec, a *tsdb.DedupAgentState) {
			c.str(&a.ID)
			c.bool(&a.Init)
			c.uint(&a.MaxSeq)
			slice(c, &a.Bits, 1, (*metaCodec).uint)
			c.uint(&a.Touched)
		})
	})
	optional(c, &img.Anomaly, func(c *metaCodec, e *anomaly.EngineState) {
		c.str(&e.Rules)
		c.uint(&e.Seq)
		for _, v := range [...]*int64{&e.Fired, &e.Resolved, &e.Suppressed} {
			integer(c, v)
		}
		slice(c, &e.Jobs, 2, func(c *metaCodec, j *anomaly.JobAlertState) {
			c.uint(&j.Job)
			slice(c, &j.States, minAlertBytes, (*metaCodec).alert)
		})
		slice(c, &e.Events, minEventBytes, (*metaCodec).event)
	})
}

func (c *metaCodec) moments(m *stats.Moments) {
	integer(c, &m.N)
	for _, v := range [...]*uint64{&m.Sum[0], &m.Sum[1], &m.SumSq[0], &m.SumSq[1], &m.SumSq[2]} {
		c.uint(v)
	}
	c.float(&m.Min)
	c.float(&m.Max)
	c.bool(&m.Over)
}

func (c *metaCodec) alert(s *anomaly.RuleAlertState) {
	c.str(&s.Rule)
	integer(c, &s.CondSince)
	integer(c, &s.ClearSince)
	c.bool(&s.Firing)
	integer(c, &s.FiredUnix)
	integer(c, &s.Node)
	c.float(&s.Value)
	c.float(&s.Threshold)
	c.str(&s.Trace)
	integer(c, &s.Count)
}

func (c *metaCodec) event(e *anomaly.Event) {
	c.uint(&e.Seq)
	for _, s := range [...]*string{&e.Type, &e.Rule, &e.Detector, &e.Severity} {
		c.str(s)
	}
	c.uint(&e.Job)
	integer(c, &e.Node)
	integer(c, &e.Unix)
	c.float(&e.Value)
	c.float(&e.Threshold)
	integer(c, &e.FiredUnix)
	c.str(&e.Trace)
	c.str(&e.Message)
}

// job: one of the store's jobs, its table inline.
func (c *metaCodec) job(j *tsdb.JobStateExport) {
	if c.v3 {
		c.jobV3(j)
		return
	}
	c.uint(&j.ID)
	c.moments(&j.Moments)
	optional(c, &j.Table, (*metaCodec).table)
	slice(c, &j.Nodes, 1, integer[int])
	integer(c, &j.FirstUnix)
	integer(c, &j.LastUnix)
	slice(c, &j.Minutes, minMinuteBytes, (*metaCodec).minute)
	c.moments(&j.Spread)
	c.trend(&j.Trend)
	integer(c, &j.Folded)
}

func (c *metaCodec) minute(m *tsdb.MinuteState) {
	integer(c, &m.Minute)
	c.moments(&m.Moments)
}

func (c *metaCodec) table(t *tsdb.TableState) {
	integer(c, &t.Shift)
	integer(c, &t.Lo)
	c.counts(&t.Counts)
}

func (c *metaCodec) trend(f *anomaly.Trend) {
	for _, v := range [...]*float64{&f.EWFast, &f.EWSlow, &f.EWVar, &f.FastPeak, &f.CUSUMPos, &f.CUSUMNeg} {
		c.float(v)
	}
	integer(c, &f.Phases)
	integer(c, &f.LastPhase)
	integer(c, &f.RunDir)
	integer(c, &f.RunLen)
	c.float(&f.RunBase)
	for i := range f.Shape {
		integer(c, &f.Shape[i])
	}
}
