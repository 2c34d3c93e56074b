// Command powserved is the online power-telemetry daemon: it ingests
// RAPL-style per-node per-minute samples pushed by monitoring agents into
// a sharded in-memory TSDB, answers live node/job power queries, and
// serves pre-execution power predictions from a BDT model exported by
// powpredict -save-model.
//
// Usage:
//
//	powserved -addr :8080 -model model.json
//	powserved -addr :8080 -data-dir /var/lib/powserved   # crash-safe
//
// With -data-dir the ingest path is crash-safe: accepted batches are
// written to a write-ahead log before they are acknowledged, snapshots
// bound replay time, and on startup the daemon recovers the exact
// pre-crash analytics (latest snapshot + WAL tail) before it binds the
// listener. The directory must exist; a second instance on the same
// directory is refused (flock).
//
// A durable daemon can also replicate for high availability:
//
//	powserved -addr :8080 -data-dir /var/lib/pow-a                # primary
//	powserved -addr :8081 -data-dir /var/lib/pow-b \
//	          -role follower -follow http://127.0.0.1:8080        # standby
//
// The follower streams the primary's WAL (bootstrapping from a
// snapshot when too far behind), replays it into its own WAL and
// store, serves read-only queries, and reports replication lag on
// /readyz and /metrics. Promote a follower with SIGUSR1 or
// POST /v1/promote: it bumps the shared epoch and starts accepting
// writes; a deposed primary that observes the newer epoch fences
// itself and rejects further ingest with a distinct error. With
// -repl-ack sync the primary acknowledges a batch only after every
// registered follower has applied it.
//
// Failover can also drive itself. Give each member an -elect-id, an
// -advertise URL, and the other members as repeatable -peer flags, and
// add a vote-only witness so two survivors always form a quorum. The
// data nodes set no -role or -follow:
//
//	powserved -addr :8080 -data-dir /var/lib/pow-a -elect-id a \
//	          -advertise http://127.0.0.1:8080 \
//	          -peer b=http://127.0.0.1:8081 -peer w=http://127.0.0.1:8082,witness
//	powserved -addr :8081 -data-dir /var/lib/pow-b -elect-id b \
//	          -advertise http://127.0.0.1:8081 \
//	          -peer a=http://127.0.0.1:8080 -peer w=http://127.0.0.1:8082,witness
//	powserved -addr :8082 -data-dir /var/lib/pow-w -role witness -elect-id w \
//	          -advertise http://127.0.0.1:8082 \
//	          -peer a=http://127.0.0.1:8080 -peer b=http://127.0.0.1:8081
//
// The election decides who leads: a data node that led its last epoch
// (the EPOCH record in -data-dir says so) leads it again once a quorum
// round confirms it, any other boots a follower. The group detects a
// dead or partitioned primary within the lease TTL, elects the standby
// with the witness's vote, fences the old epoch, and — when the deposed
// primary returns — rejoins it as a follower automatically, replacing
// its own records with the new leader's snapshot.
//
// Overload protection is always on: an AIMD concurrency limiter and a
// CoDel-style ingest queue shed excess load with 429 over_capacity +
// Retry-After once ack latency degrades, well before the node falls
// over. -admit tunes the layer (and adds per-agent rate limits); its
// mem-watermark key arms memory-pressure degraded mode, which sheds
// ingest and forces early block flushes until accounted memory drops
// back under the resume level.
//
// With -anomaly (or -anomaly-rules / -alert-webhook, which imply it)
// the daemon fingerprints every job's power behavior as samples
// stream in and runs a rule-driven alert pipeline over the
// fingerprints: flatline, zombie, overshoot, and drift detectors with
// per-(job,rule) dedup and hysteresis. Alerts go to the structured
// log and, with -alert-webhook, to an HTTP endpoint with retries and
// backoff; GET /v1/anomalies serves the event ring, active alerts,
// per-job fingerprints, and a live NDJSON stream (stream=1). Detector
// state rides snapshots and the replication stream, so a promoted
// standby neither re-fires nor misses alerts.
//
// Endpoints: POST /v1/samples, GET /v1/nodes/{id}/series,
// GET /v1/jobs/{id}/power, POST /v1/predict, GET /v1/summary,
// GET /v1/anomalies, GET /metrics, GET /healthz, GET /readyz,
// POST /v1/promote, and the replication plane GET /v1/repl/stream,
// GET /v1/repl/snapshot, POST /v1/repl/ack. SIGINT/SIGTERM shut down
// gracefully, draining the ingest queue first.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hpcpower/internal/admit"
	"hpcpower/internal/anomaly"
	"hpcpower/internal/block"
	"hpcpower/internal/mlearn"
	"hpcpower/internal/obs"
	"hpcpower/internal/serve"
	"hpcpower/internal/tsdb"
	"hpcpower/internal/wal"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address (host:port, :0 picks a free port)")
		model   = flag.String("model", "", "BDT model file from powpredict -save-model")
		ring    = flag.Int("ring", 1440, "retained samples per node (1440 = one day of minutes)")
		workers = flag.Int("workers", 4, "ingest worker goroutines")

		admitSpec = flag.String("admit", "", `admission-control spec, comma-separated key=value, e.g. "target=50ms,min-inflight=8,agent-rate=100,mem-watermark=256MiB" (empty = defaults); keys:`+"\n"+new(admit.Config).Spec().Usage())

		blocksDir    = flag.String("blocks-dir", "", "directory for the on-disk block store (empty = head-only, rings are the whole store)")
		flushEvery   = flag.Duration("flush-interval", time.Minute, "head→block flush cadence (0 = manual via POST /v1/admin/flush)")
		flushGrace   = flag.Duration("flush-grace", 5*time.Minute, "hold the flush cut this far behind wall clock for late samples")
		compactEvery = flag.Duration("compact-interval", 30*time.Second, "block compactor + retention cadence")
		retainRaw    = flag.Duration("retention-raw", 0, "raw-tier (1m) block retention (0 = keep forever)")
		retain5m     = flag.Duration("retention-5m", 0, "5m rollup retention (0 = keep forever)")
		retain1h     = flag.Duration("retention-1h", 0, "1h rollup retention (0 = keep forever)")
		scrubEvery   = flag.Duration("scrub-interval", 0, "background integrity scrub cadence for sealed blocks (0 = manual via POST /v1/admin/scrub)")

		dataDir   = flag.String("data-dir", "", "data directory for the write-ahead log and snapshots (empty = memory-only)")
		fsync     = flag.String("fsync", "batch", "WAL fsync policy: batch (fsync before every ack), interval (every 100ms), off")
		snapEvery = flag.Duration("snapshot-interval", 20*time.Second, "time between snapshots")
		snapBatch = flag.Int64("snapshot-every", 4096, "also snapshot after this many WAL appends")
		diskCheck = flag.Duration("disk-check-interval", 2*time.Second, "storage-health monitor cadence (write probe + free-space watermark)")
		diskLow   = flag.Int64("disk-low-bytes", 0, "degrade ingest when data-dir free space falls below this, until it is back above twice this (0 = probe-only)")

		role       = flag.String("role", "", `replication role: "primary" (empty means primary), "follower" (needs -data-dir and -follow), or "witness" (vote-only election member, no data plane); a data node under -peer takes its role from its epoch record and sets none`)
		follow     = flag.String("follow", "", "primary base URL to replicate from (with -role follower only)")
		followerID = flag.String("follower-id", "", `this follower's ID on the primary (empty: -elect-id under -peer, else "follower")`)
		replAck    = flag.String("repl-ack", "async", `ack mode: "async", or "sync" to ack ingest only after followers applied (waits at most 5s)`)

		electID   = flag.String("elect-id", "", "this node's election ID (elections are enabled by -peer)")
		advertise = flag.String("advertise", "", "base URL peers and shippers use to reach this node (required with -peer; behind a proxy or NAT, the outside URL)")
		hbEvery   = flag.Duration("heartbeat-interval", 250*time.Millisecond, "election heartbeat / failure-detection cadence; the leader lease lasts 4 heartbeats")

		anomalyOn    = flag.Bool("anomaly", false, "enable streaming power-fingerprint anomaly detection and alerting (GET /v1/anomalies)")
		anomalyRules = flag.String("anomaly-rules", "", `detector rule spec, semicolon-separated "detector:key=value,..." with detector one of `+strings.Join(anomaly.Profiles(), ", ")+`, e.g. "flatline:min-duration=10m,min-w=100;zombie:severity=critical" (implies -anomaly; empty = built-in defaults); keys:`+"\n"+new(anomaly.Rule).Spec().Usage())
		alertWebhook = flag.String("alert-webhook", "", "POST fired/resolved alert events to this URL with retries and backoff (implies -anomaly)")
		alertRing    = flag.Int("alert-ring", 4096, "retained alert events served by GET /v1/anomalies")

		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", `structured log format: "text" or "json"`)
		debugAddr = flag.String("debug-addr", "", "separate listener for /debug/pprof, /debug/traces/recent, and /metrics (empty = disabled)")
		slowReq   = flag.Duration("slow-request", time.Second, "log a warning for requests at or over this duration (negative disables)")
	)
	var peers peerFlag
	flag.Var(&peers, "peer", `failover-group peer, repeatable: "id=url" or "id=url,witness"`)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger := obs.NewLogger(obs.LogConfig{Level: level, Format: *logFormat, Output: os.Stderr})
	if *role == "witness" {
		// Vote-only member: no store, no WAL, no model — just the
		// election state machine behind a minimal HTTP front.
		ecfg, err := electionConfig(*electID, *advertise, *dataDir, peers, *hbEvery, true)
		if err != nil {
			fatal(err)
		}
		ecfg.Logger = logger // a data node's elector inherits the server's
		if err := runWitness(*addr, ecfg); err != nil {
			fatal(err)
		}
		return
	}
	elected := len(peers) > 0
	if *followerID == "" && elected {
		*followerID = *electID
	}
	// Refuse flags that would quietly run a second primary, data dir or not.
	replCfg := &serve.ReplicationConfig{Role: *role, PrimaryURL: *follow, FollowerID: *followerID, SyncAck: *replAck == "sync"}
	if err := replCfg.Check(elected); err != nil {
		fatal(err)
	}
	if *dataDir == "" && (elected || *role == serve.RoleFollower) {
		fatal(fmt.Errorf("-peer and -role follower require -data-dir (elections and replication ride the WAL)"))
	}
	if *replAck != "async" && *replAck != "sync" {
		fatal(fmt.Errorf("-repl-ack %q: want async or sync", *replAck))
	}
	admitCfg, err := admit.ParseConfig(*admitSpec)
	if err != nil {
		fatal(err)
	}
	if s := admitCfg.String(); s != "" {
		fmt.Printf("powserved: admission control: %s\n", s)
	}

	var bdt *mlearn.BDT
	if *model != "" {
		bdt, err = mlearn.LoadBDTFile(*model)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("powserved: loaded model %s (depth %d, %d leaves)\n", *model, bdt.Depth(), bdt.Leaves())
	} else {
		fmt.Println("powserved: no model (-model); POST /v1/predict will answer 503")
	}

	store := tsdb.New(tsdb.Config{RingLen: *ring})

	// Streaming anomaly detection: the engine evaluates the store's
	// per-job fingerprints once per ingested batch and runs the alert
	// pipeline (dedup, hysteresis, sinks). The server owns the engine
	// and shuts it down on Close.
	var anom *anomaly.Engine
	if *anomalyOn || *anomalyRules != "" || *alertWebhook != "" {
		rules := anomaly.DefaultRules()
		if *anomalyRules != "" {
			rules, err = anomaly.ParseRules(*anomalyRules)
			if err != nil {
				fatal(err)
			}
		}
		sinks := []anomaly.Sink{anomaly.NewLogSink(logger)}
		if *alertWebhook != "" {
			ws, err := anomaly.NewWebhookSink(anomaly.WebhookConfig{
				URL:    *alertWebhook,
				Logger: obs.Component(logger, "alert-webhook"),
			})
			if err != nil {
				fatal(err)
			}
			sinks = append(sinks, ws)
		}
		anom = anomaly.NewEngine(anomaly.Config{
			Rules:    rules,
			RingSize: *alertRing,
			Sinks:    sinks,
			Lookup:   store.JobFingerprint,
			Logger:   obs.Component(logger, "anomaly"),
		})
		fmt.Printf("powserved: anomaly detection: %s\n", anomaly.FormatRules(rules))
	}

	var blocks *block.Store
	if *blocksDir != "" {
		if err := os.MkdirAll(*blocksDir, 0o755); err != nil {
			fatal(err)
		}
		// The block store is attached before the server exists, so both
		// the flush loop and crash recovery see the on-disk frontier.
		bs, err := block.Open(block.Config{
			Dir:             *blocksDir,
			RetentionRaw:    *retainRaw,
			Retention5m:     *retain5m,
			Retention1h:     *retain1h,
			CompactInterval: *compactEvery,
			ScrubInterval:   *scrubEvery,
		})
		if err != nil {
			fatal(err)
		}
		blocks = bs
		store.AttachBlocks(bs)
		bs.Start()
		defer bs.Stop()
		st := bs.Stats()
		fmt.Printf("powserved: block store %s: %d raw / %d 5m / %d 1h blocks, frontier %d\n",
			*blocksDir, st.Raw.Blocks, st.Rollup5m.Blocks, st.Rollup1h.Blocks, st.FrontierUnix)
	}
	cfg := serve.Config{
		IngestWorkers:      *workers,
		Admit:              admitCfg,
		Anomaly:            anom,
		Logger:             logger,
		SlowRequest:        *slowReq,
		BlockFlushInterval: *flushEvery,
		BlockFlushGrace:    *flushGrace,
	}
	if blocks == nil {
		cfg.BlockFlushInterval = 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var srv *serve.Server
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fatal(err)
		}
		// Fail fast: a missing, unwritable, or already-locked data dir is
		// refused here, before any listener exists.
		srv, err = serve.NewDurable(store, bdt, cfg, serve.DurabilityConfig{
			Dir:               *dataDir,
			Policy:            policy,
			SnapshotInterval:  *snapEvery,
			SnapshotEvery:     *snapBatch,
			DiskCheckInterval: *diskCheck,
			DiskLowBytes:      *diskLow,
			Replication:       replCfg,
		})
		if err != nil {
			fatal(err)
		}
		if elected {
			// Self-driving failover: the elector attaches before recovery
			// (the boot role comes from the epoch record) and so before the
			// listener binds: /v1/elect/* is routable from the first request.
			ecfg, err := electionConfig(*electID, *advertise, *dataDir, peers, *hbEvery, false)
			if err != nil {
				fatal(err)
			}
			el, err := srv.StartElection(ctx, ecfg)
			if err != nil {
				fatal(err)
			}
			defer el.Close()
			fmt.Printf("powserved: election group: id %s, %d peer(s), heartbeat %s\n",
				*electID, len(peers), *hbEvery)
		}
		// Recover the pre-crash state before binding: a client that can
		// connect always sees fully recovered analytics.
		rep, err := srv.Recover()
		if err != nil {
			fatal(err)
		}
		stale := ""
		if rep.StaleLock {
			stale = " (stale lock from a dead instance)"
		}
		snap := "no snapshot"
		if rep.SnapshotFound {
			snap = fmt.Sprintf("snapshot lsn %d (%d bytes, loaded in %s)",
				rep.SnapshotLSN, rep.SnapshotBytes, rep.SnapshotLoad.Round(time.Millisecond))
		}
		fmt.Printf("powserved: recovered %s in %s%s: %s, wal opened in %s, %d records (%d samples) replayed in %s, %d skipped, %d tombstoned, %d decode errors, %d bytes truncated\n",
			*dataDir, rep.Duration.Round(time.Millisecond), stale, snap, rep.WALOpen.Round(time.Millisecond),
			rep.RecordsReplayed, rep.SamplesReplayed, rep.Replay.Round(time.Millisecond),
			rep.RecordsSkipped, rep.Tombstoned, rep.DecodeErrors, rep.TruncatedBytes)
	} else {
		srv = serve.New(store, bdt, cfg)
	}

	// SIGUSR1 promotes a follower to primary (same as POST /v1/promote):
	// bump the epoch, stop following, start accepting writes.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			epoch, err := srv.Promote()
			if err != nil {
				fmt.Fprintf(os.Stderr, "powserved: promote: %v\n", err)
				continue
			}
			fmt.Printf("powserved: promoted to primary at epoch %d\n", epoch)
		}
	}()

	if *debugAddr != "" {
		// Opt-in debug listener, separate from the serving port: pprof
		// profiles, the recent-trace ring, and a second /metrics scrape
		// point that stays responsive when the main listener is saturated.
		dbound, err := obs.ServeDebug(*debugAddr, srv.Registry(), srv.Traces())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("powserved: debug listener on %s (pprof, traces, metrics)\n", dbound)
	}

	bound, done, err := srv.ListenAndServe(ctx, *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("powserved: listening on %s\n", bound) // the role is on /readyz

	start := time.Now()
	if err := <-done; err != nil {
		fatal(err)
	}
	sum := store.Summarize()
	fmt.Printf("powserved: drained and stopped after %s: %d samples, %d nodes, %d jobs\n",
		time.Since(start).Round(time.Second), sum.Samples, sum.Nodes, sum.Jobs)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "powserved: %v\n", err)
	os.Exit(1)
}
