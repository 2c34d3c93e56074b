package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"

	"hpcpower/internal/mlearn"
	"hpcpower/internal/wal"
)

// recoverInst measures restarts. Set-up ingests recoverBatches batches
// into a durable node with snapshots off, notes the summary it serves,
// and keeps an image of its data directory: taken while it still runs
// (what a crash leaves: WAL only, stale LOCK) or after Close (what a
// clean shutdown leaves: the final snapshot covers the whole WAL). Every
// operation restarts a node on a fresh copy of the image.
type recoverInst struct {
	e       *env
	clean   bool
	model   *mlearn.BDT
	image   string
	summary []byte // GET /v1/summary before the crash, byte for byte
	samples int64
	records int
}

func setupRecover(clean bool) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		r := &recoverInst{e: e, clean: clean, records: e.count(recoverBatches, 40)}
		var err error
		if r.model, _, err = trainModel(e.seed, modelScale); err != nil {
			return nil, err
		}
		dir, err := e.scratch("live")
		if err != nil {
			return nil, err
		}
		if r.image, err = e.scratch("image"); err != nil {
			return nil, err
		}
		// SyncNone: the image is the same bytes whatever the fsync policy,
		// and set-up does not have to wait for the disk.
		n, err := bootNode(dir, nodeCfg{model: r.model, durable: true, policy: wal.SyncNone, anomaly: true})
		if err != nil {
			return nil, err
		}
		// One agent after the other through the handler chain, so records
		// are applied in LSN order and replay reproduces the store bit
		// for bit.
		fleet := NewFleet(e.seed)
		agents := []*agent{newAgent(fleet, 0, n.url), newAgent(fleet, 1, n.url)}
		for i := 0; i < r.records; i++ {
			a := agents[i%len(agents)]
			rec, _ := n.serveInProcess(http.MethodPost, "/v1/samples", a.next(), "")
			if rec.Code != http.StatusAccepted {
				n.Close()
				return nil, statusErr("image ingest", rec.Code, rec.Body.Bytes())
			}
			r.samples += agentNodes
		}
		if _, r.summary, err = summaryOver(n); err != nil {
			n.Close()
			return nil, err
		}
		if !clean {
			err = copyDir(dir, r.image)
		}
		if cerr := n.Close(); err == nil {
			err = cerr
		}
		if clean && err == nil {
			err = copyDir(dir, r.image)
		}
		if err != nil {
			return nil, err
		}
		return r, os.RemoveAll(dir)
	}
}

// Round is one restart: bootNode is NewDurable + Recover + listen.
func (r *recoverInst) Round() (roundStats, error) {
	dir, err := r.e.scratch("restart")
	if err != nil {
		return roundStats{}, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(r.image, dir); err != nil {
		return roundStats{}, err
	}
	var n *node
	rs := roundStats{ops: 1, work: float64(r.samples)}
	rs.busy, rs.cpu, rs.alloc, err = measure(func() error {
		var err error
		n, err = bootNode(dir, nodeCfg{model: r.model, durable: true, policy: wal.SyncBatch, anomaly: true})
		return err
	})
	if err != nil {
		return rs, err
	}
	rs.lat = []float64{ms(rs.busy)}
	// The oracle runs on every restart: it is cheap next to the replay.
	verr := r.check(n)
	if cerr := n.Close(); verr == nil {
		verr = cerr
	}
	return rs, verr
}

func (r *recoverInst) check(n *node) error {
	if got := n.store.Ingested(); got != r.samples {
		return fmt.Errorf("recovered %d samples, the image holds %d", got, r.samples)
	}
	_, sum, err := summaryOver(n)
	if err != nil {
		return err
	}
	if !bytes.Equal(sum, r.summary) {
		return fmt.Errorf("recovered summary %s, before the restart %s", sum, r.summary)
	}
	m := scrape(n.srv.Registry())
	found, replayed := m["powserved_recovery_snapshot_found"], m["powserved_recovery_records_replayed"]
	if r.clean && (found != 1 || replayed != 0) {
		return fmt.Errorf("clean image: snapshot found %v, %v records replayed; want 1 and 0", found, replayed)
	}
	if !r.clean && (found != 0 || int(replayed) != r.records) {
		return fmt.Errorf("crash image: snapshot found %v, %v records replayed; want 0 and %d", found, replayed, r.records)
	}
	if st := n.anom.Snapshot(); st.Fired != 0 {
		return fmt.Errorf("%d alerts fired on the clean fleet", st.Fired)
	}
	return nil
}

// Verify has nothing left to do: every restart was checked in Round.
func (r *recoverInst) Verify() error { return nil }

func (r *recoverInst) Close() error { return os.RemoveAll(r.image) }
