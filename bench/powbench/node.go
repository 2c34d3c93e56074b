package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hpcpower"
	"hpcpower/internal/anomaly"
	"hpcpower/internal/mlearn"
	"hpcpower/internal/obs"
	"hpcpower/internal/serve"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/wal"
)

// nodeCfg selects how a powserved instance is assembled — the same
// wiring cmd/powserved does from its flags, with the server's defaults
// (queue 256, 4 ingest workers, default admission) everywhere.
type nodeCfg struct {
	model   *mlearn.BDT
	store   *tsdb.Store // preloaded store; nil means a fresh default one
	durable bool        // WAL + snapshots in dir
	policy  wal.SyncPolicy
	anomaly bool // streaming detectors with the default rules
	repl    *serve.ReplicationConfig
}

// node is one in-process powserved on a loopback listener.
type node struct {
	store  *tsdb.Store
	srv    *serve.Server
	h      http.Handler // srv.Handler(), built once
	dir    string       // data directory of a durable node
	anom   *anomaly.Engine
	url    string
	cancel context.CancelFunc
	done   <-chan error
}

// quietSnapshots keeps snapshots out of the measured window. The server
// evaluates its count trigger only on a SnapshotInterval/4 tick, so a
// count-only schedule cannot be configured from outside; a time-driven
// snapshot would land in some rounds and not in others and make their
// medians bimodal. Snapshot cost is measured on its own (tsdb.* and
// wal.snapshot_* per-layer metrics) and on recover-clean.
const quietSnapshots = time.Hour

// walSegmentBytes is `powserved -segment-bytes` on every durable node.
// The replication source re-reads the active segment from its start for
// every burst it streams, so a semi-sync ack slows down linearly as the
// segment fills (at the 64 MiB default, 4x within the first 1,500
// batches) and a run would measure where in the segment it happened to
// stop. With 8 MiB segments (about 330 batches) a round covers a whole
// fill-and-rotate cycle and rounds are comparable. The per-layer metric
// wal.read_range_tail_us keeps the cost of one such re-read visible.
const walSegmentBytes = 8 << 20

func bootNode(dir string, c nodeCfg) (*node, error) {
	n := &node{store: c.store, dir: dir}
	if n.store == nil {
		n.store = tsdb.New(tsdb.DefaultConfig())
	}
	cfg := serve.DefaultConfig()
	if c.anomaly {
		n.anom = anomaly.NewEngine(anomaly.Config{Lookup: n.store.JobFingerprint})
		cfg.Anomaly = n.anom
	}
	if c.durable {
		srv, err := serve.NewDurable(n.store, c.model, cfg, serve.DurabilityConfig{
			Dir:              dir,
			Policy:           c.policy,
			SegmentBytes:     walSegmentBytes,
			SnapshotInterval: quietSnapshots,
			SnapshotEvery:    1 << 40,
			Replication:      c.repl,
		})
		if err != nil {
			return nil, err
		}
		if _, err := srv.Recover(); err != nil {
			srv.Close()
			return nil, err
		}
		n.srv = srv
	} else {
		n.srv = serve.New(n.store, c.model, cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addr, done, err := n.srv.ListenAndServe(ctx, "127.0.0.1:0")
	if err != nil {
		cancel()
		n.srv.Close()
		return nil, err
	}
	n.url, n.cancel, n.done, n.h = "http://"+addr, cancel, done, n.srv.Handler()
	return n, nil
}

// Close shuts the listener down and drains the server (final snapshot
// and WAL close on a durable node).
func (n *node) Close() error {
	n.cancel()
	return <-n.done
}

// serveInProcess answers one request through the server's full handler
// chain without a socket, and returns how long ServeHTTP took.
func (n *node) serveInProcess(method, target string, body []byte, traceID string) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if traceID != "" {
		req.Header.Set(obs.HeaderTraceID, traceID)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	n.h.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

// scrape renders a registry and returns every series by its exposition
// key, e.g. `powserved_alert_fired_total{rule="drift"}`.
func scrape(reg *obs.Registry) map[string]float64 {
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := map[string]float64{}
	sc := bufio.NewScanner(&b)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// histMean is the mean of an exposed histogram in seconds.
func histMean(m map[string]float64, name string) float64 {
	if c := m[name+"_count"]; c > 0 {
		return m[name+"_sum"] / c
	}
	return 0
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %s waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// trainModel fits the BDT powserved serves /v1/predict from, on a small
// Emmy dataset generated from the seed, and returns the users to ask for.
func trainModel(seed uint64, scale float64) (*mlearn.BDT, []string, error) {
	ds, err := hpcpower.GenerateEmmy(scale, seed)
	if err != nil {
		return nil, nil, err
	}
	m := mlearn.NewBDT(mlearn.DefaultTreeParams())
	if err := m.Fit(mlearn.SamplesFromDataset(ds)); err != nil {
		return nil, nil, err
	}
	return m, ds.Users(), nil
}

// copyDir copies the regular files of a flat directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// dirBytes sums the sizes of the files under dir whose name has prefix.
func dirBytes(dir, prefix string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), prefix) {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}

func statusErr(what string, code int, body []byte) error {
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("%s: HTTP %d: %s", what, code, bytes.TrimSpace(body))
}
