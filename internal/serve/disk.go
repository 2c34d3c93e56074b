package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Storage-degraded mode: a disk-health monitor owned by the durability
// layer flips ingest to 503 when the data directory stops accepting
// durable writes — free space under the watermark, a failed write
// probe, or a poisoned WAL (fsync failure). Reads keep serving the
// whole time, /readyz stays 200 with the reason attached, and the mode
// clears itself when the next check succeeds (except a poisoned WAL,
// which requires a restart — crash recovery is the only safe way to
// re-establish what is durable after a failed fsync).

// CodeStorageDegraded is the machine-readable error code on a 503 from
// the ingest path while the node cannot make writes durable. Shippers
// treat it as backpressure: honor Retry-After, keep spilling, do not
// rotate targets — every other node shares the same fate only if the
// outage is systemic, but rotating on a single node's full disk would
// thrash.
const CodeStorageDegraded = "storage_degraded"

// HeaderStorageDegraded is set to "1" on storage-degraded 503s so
// clients can distinguish them from queue-full backpressure without
// parsing the body.
const HeaderStorageDegraded = "X-Storage-Degraded"

// diskState is the monitor's shared state, read by the ingest gate and
// the metrics collector.
type diskState struct {
	degraded    atomic.Bool
	reason      atomic.Value // string; set before degraded flips true
	transitions atomic.Int64 // degraded-state flips (either direction)
	probeErrors atomic.Int64
	freeBytes   atomic.Int64
	totalBytes  atomic.Int64
}

// storageDegraded reports whether ingest should refuse with 503
// storage_degraded.
func (d *durability) storageDegraded() bool { return d.disk.degraded.Load() }

// degradeReason returns the human-readable cause of the current
// degraded state ("" when healthy).
func (d *durability) degradeReason() string {
	if !d.disk.degraded.Load() {
		return ""
	}
	if r, ok := d.disk.reason.Load().(string); ok {
		return r
	}
	return "storage degraded"
}

func (d *durability) setDegraded(v bool, reason string) {
	if v {
		d.disk.reason.Store(reason)
	}
	if d.disk.degraded.Swap(v) != v {
		d.disk.transitions.Add(1)
	}
}

// diskLoop re-checks storage health on a fixed cadence. It starts after
// recovery so the first check never races replay.
func (d *durability) diskLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.DiskCheckInterval)
	defer t.Stop()
	d.checkDisk()
	for {
		select {
		case <-d.stopc:
			return
		case <-t.C:
			d.checkDisk()
		}
	}
}

// checkDisk runs one health pass: WAL poison first (terminal), then the
// free-space watermark, then an end-to-end write+fsync probe through
// the same vfs the WAL writes through. Recovery is hysteretic: once
// degraded on space, free bytes must climb past twice the low watermark
// before ingest reopens, so a disk hovering at the threshold does not
// flap.
func (d *durability) checkDisk() {
	if d.log != nil {
		if err := d.log.Err(); err != nil {
			d.setDegraded(true, fmt.Sprintf("wal poisoned (restart required): %v", err))
			return
		}
	}
	free, total, ok := diskUsage(d.cfg.Dir)
	if ok {
		d.disk.freeBytes.Store(int64(free))
		d.disk.totalBytes.Store(int64(total))
	}
	if ok && d.cfg.DiskLowBytes > 0 {
		low := uint64(d.cfg.DiskLowBytes)
		if free < low {
			d.setDegraded(true, fmt.Sprintf("disk free %d bytes below watermark %d", free, low))
			return
		}
		if d.disk.degraded.Load() && free < 2*low {
			return // hold degraded until clearly out of the woods
		}
	}
	if err := d.probeWrite(); err != nil {
		d.disk.probeErrors.Add(1)
		d.setDegraded(true, fmt.Sprintf("disk probe failed: %v", err))
		return
	}
	d.setDegraded(false, "")
}

// probeWrite proves the data directory still takes durable writes:
// create, write, fsync, close, remove — through the injected vfs, so
// injected faults degrade the probe exactly like the WAL.
func (d *durability) probeWrite() error {
	path := filepath.Join(d.cfg.Dir, ".disk-probe")
	f, err := d.fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("powserved disk probe\n"))
	serr := f.Sync()
	cerr := f.Close()
	_ = d.fsys.Remove(path)
	switch {
	case werr != nil:
		return werr
	case serr != nil:
		return serr
	default:
		return cerr
	}
}
