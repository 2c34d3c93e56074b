package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed stage of one traced operation. Start and End are
// nanoseconds since the operation's root span began. The stage names are
// the vocabulary in-program spans are meant to reuse:
//
//	ingest: http > serve > decode, admit, dedup, wal_append, queue,
//	        apply, detect, fsync_wait
//	query:  http > serve > tsdb_merge (> block_decode), encode
//
// The timeline is assembled from three measurements of the same
// operation against identically configured instances — over the
// loopback socket (http), through the handler chain in-process (serve),
// and as direct calls into each layer's public functions in the
// server's order — because this change may not put spans inside the
// program. serve is centred inside http, and the layer spans start where
// serve starts, at the offsets they were measured at.
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the spans of a traced run in memory until it ends.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(trace, name, parent string, start, end int64) {
	l.spans = append(l.spans, span{Trace: trace, Name: name, Parent: parent, Start: start, End: end})
}

// write stores the spans as <dir>/trace-<workload>.json.
func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// stageSet accumulates per-stage durations across traced operations.
type stageSet map[string][]float64

func (s stageSet) add(name string, d time.Duration) { s[name] = append(s[name], us(d)) }

// med is the median of a stage in µs; 0 when the stage never ran.
func (s stageSet) med(name string) float64 { return median(s[name]) }
