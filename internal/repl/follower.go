package repl

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower/internal/obs"
	"hpcpower/internal/retry"
)

// FollowerConfig wires the follower pull loop to a primary and to the
// serving layer's apply path.
type FollowerConfig struct {
	// PrimaryURL is the primary's base URL (e.g. http://10.0.0.1:8080).
	PrimaryURL string
	// ID names this follower in the primary's registry and reap holds.
	ID string
	// Epoch returns the follower's current fencing epoch; it is sent
	// with every request so a stale primary learns it was fenced.
	Epoch func() uint64
	// ObserveEpoch is called with every epoch the primary reports;
	// the serving layer persists increases to the epoch file.
	ObserveEpoch func(epoch uint64) error
	// Applied returns the highest primary LSN durably applied locally;
	// the loop resumes streaming just after it.
	Applied func() uint64
	// Apply durably applies one replicated record (local WAL append +
	// TSDB apply). It must only return once the record would survive a
	// follower crash, because the loop acks it to the primary. body is
	// the stream reader's buffer: Apply copies what it keeps.
	Apply func(lsn uint64, body []byte) error
	// Bootstrap installs a full snapshot taken at lsn, replacing local
	// state; used when the primary has reaped the records the loop
	// would otherwise resume from, or leads an epoch past ours.
	Bootstrap func(lsn uint64, payload []byte) error

	// AckEvery is the acknowledgement cadence. 0 means 200 ms.
	AckEvery time.Duration
	// StallTimeout kills a stream connection that delivers no frame
	// (not even a heartbeat) for this long. 0 means 5 s.
	StallTimeout time.Duration
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Logger receives one record per notable event (a failed stream or
	// bootstrap, a snapshot install) under component "repl". nil discards.
	Logger *slog.Logger
}

// FollowerStats is a point-in-time snapshot of the pull loop.
type FollowerStats struct {
	AppliedLSN       uint64 // highest primary LSN applied locally
	Watermark        uint64 // primary watermark from the last heartbeat
	Lag              uint64 // Watermark - AppliedLSN (0 when caught up)
	PrimaryEpoch     uint64 // epoch from the last header/heartbeat
	AppliedRecords   int64  // data frames applied this process
	Reconnects       int64  // stream connections opened after the first
	SnapshotInstalls int64  // bootstrap installs
}

// Follower runs the standby's pull loop: connect to the primary's
// stream endpoint, apply records, acknowledge progress, bootstrap from
// a snapshot when too far behind, and reconnect with backoff on any
// failure. Start it with StartFollower; Stop ends the loop (promotion
// does this before bumping the epoch).
type Follower struct {
	cfg    FollowerConfig
	client *http.Client
	logger *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	needBootstrap    atomic.Bool
	watermark        atomic.Uint64
	primaryEpoch     atomic.Uint64
	appliedRecords   atomic.Int64
	reconnects       atomic.Int64
	snapshotInstalls atomic.Int64
}

// StartFollower validates cfg and starts the pull loop.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.PrimaryURL == "" {
		return nil, fmt.Errorf("repl: follower needs a primary URL")
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("repl: follower needs an ID")
	}
	if cfg.Epoch == nil || cfg.Applied == nil || cfg.Apply == nil || cfg.Bootstrap == nil {
		return nil, fmt.Errorf("repl: follower config is missing a callback")
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 200 * time.Millisecond
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 5 * time.Second
	}
	f := &Follower{
		cfg: cfg, client: cfg.Client,
		logger: obs.Component(cfg.Logger, "repl").With(slog.String("follower", cfg.ID)),
	}
	if f.client == nil {
		f.client = http.DefaultClient
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Stop ends the pull loop and waits for it to exit. Safe to call twice.
func (f *Follower) Stop() {
	f.cancel()
	f.wg.Wait()
}

// Stats returns the loop's current counters.
func (f *Follower) Stats() FollowerStats {
	applied := f.cfg.Applied()
	wm := f.watermark.Load()
	var lag uint64
	if wm > applied {
		lag = wm - applied
	}
	return FollowerStats{
		AppliedLSN:       applied,
		Watermark:        wm,
		Lag:              lag,
		PrimaryEpoch:     f.primaryEpoch.Load(),
		AppliedRecords:   f.appliedRecords.Load(),
		Reconnects:       f.reconnects.Load(),
		SnapshotInstalls: f.snapshotInstalls.Load(),
	}
}

func (f *Follower) run() {
	defer f.wg.Done()
	backoff := retry.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := -1; f.ctx.Err() == nil; attempt++ { // -1: the first connect is not a retry
		if attempt >= 0 {
			f.reconnects.Add(1)
			if retry.Sleep(f.ctx, backoff.Delay(rng, attempt, 0)) != nil {
				return
			}
		}
		if f.needBootstrap.Load() {
			if err := f.bootstrap(); err != nil {
				if f.ctx.Err() == nil {
					f.logger.Warn("bootstrap failed", slog.Any("err", err))
				}
				continue
			}
			f.needBootstrap.Store(false)
		}
		progressed, err := f.streamOnce()
		if err != nil && f.ctx.Err() == nil {
			f.logger.Warn("stream ended", slog.Any("err", err))
		}
		if progressed {
			attempt = -1 // next reconnect waits from Base again
		}
	}
}

// observeEpoch records an epoch reported by the primary, persisting
// increases through the configured callback.
func (f *Follower) observeEpoch(epoch uint64) {
	for {
		cur := f.primaryEpoch.Load()
		if epoch <= cur {
			return
		}
		if f.primaryEpoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	if f.cfg.ObserveEpoch != nil {
		if err := f.cfg.ObserveEpoch(epoch); err != nil {
			f.logger.Error("persisting primary epoch failed", slog.Uint64("epoch", epoch), slog.Any("err", err))
		}
	}
}

// streamOnce opens one stream connection and consumes it until it ends.
// progressed reports whether at least one frame was decoded (resets the
// reconnect backoff).
func (f *Follower) streamOnce() (progressed bool, err error) {
	from := f.cfg.Applied() + 1
	u := fmt.Sprintf("%s/v1/repl/stream?from=%d&follower=%s",
		f.cfg.PrimaryURL, from, url.QueryEscape(f.cfg.ID))

	ctx, cancel := context.WithCancel(f.ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("X-Repl-Epoch", strconv.FormatUint(f.cfg.Epoch(), 10))
	resp, err := f.client.Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()

	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The primary reaped past our resume point: install a snapshot,
		// then reconnect from its LSN.
		return false, f.bootstrap()
	default:
		return false, fmt.Errorf("stream request: %s", resp.Status)
	}

	// Watchdog: a connection that goes silent past StallTimeout (no
	// data, no heartbeat) is dead even if TCP has not noticed — exactly
	// what an asymmetric partition produces.
	watchdog := time.AfterFunc(f.cfg.StallTimeout, cancel)
	defer watchdog.Stop()

	sr, err := NewStreamReader(resp.Body)
	if err != nil {
		return false, err
	}
	if local := f.cfg.Epoch(); local > 0 && sr.Epoch() > local {
		// A primary was elected or promoted since we last applied from
		// one — perhaps over us, if we led in between: past our cursor
		// its LSNs may be another history. Install its snapshot first.
		// (Epoch 0 has applied nothing.)
		f.logger.Info("primary epoch is past ours: bootstrapping",
			slog.Uint64("epoch", local), slog.Uint64("primary_epoch", sr.Epoch()))
		f.needBootstrap.Store(true)
		cancel() // the stream never ends on its own: do not drain it
		return false, nil
	}
	f.observeEpoch(sr.Epoch())

	applied := f.cfg.Applied()
	lastAck := time.Time{}
	lastAckedLSN := uint64(0)
	ackIfDue := func(force bool) {
		if !force && time.Since(lastAck) < f.cfg.AckEvery {
			return
		}
		lastAck = time.Now()
		lastAckedLSN = applied
		f.ack(applied)
	}
	defer ackIfDue(true)

	for {
		fr, err := sr.Next()
		if err == io.EOF {
			return progressed, nil
		}
		if err != nil {
			if f.ctx.Err() != nil {
				return progressed, nil
			}
			return progressed, err
		}
		watchdog.Reset(f.cfg.StallTimeout)
		progressed = true
		switch fr.Type {
		case FrameData:
			if fr.LSN <= applied {
				break // duplicate delivery after a reconnect race
			}
			if err := f.cfg.Apply(fr.LSN, fr.Body); err != nil {
				return progressed, fmt.Errorf("applying lsn %d: %w", fr.LSN, err)
			}
			applied = fr.LSN
			f.appliedRecords.Add(1)
			ackIfDue(false)
		case FrameHeartbeat:
			wm, epoch, _ := DecodeHeartbeat(fr.Body)
			if wm > f.watermark.Load() {
				f.watermark.Store(wm)
			}
			f.observeEpoch(epoch)
			// The primary heartbeats right after each catch-up burst, so
			// an un-acked apply here means the burst just ended: ack now
			// rather than waiting out the cadence. Semi-sync primaries
			// block ingest acks on this.
			ackIfDue(applied != lastAckedLSN)
		}
	}
}

// bootstrap fetches and installs the primary's latest snapshot.
func (f *Follower) bootstrap() error {
	ctx, cancel := context.WithTimeout(f.ctx, 30*time.Second)
	defer cancel()
	u := fmt.Sprintf("%s/v1/repl/snapshot?follower=%s", f.cfg.PrimaryURL, url.QueryEscape(f.cfg.ID))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Repl-Epoch", strconv.FormatUint(f.cfg.Epoch(), 10))
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("snapshot request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return fmt.Errorf("snapshot request: %s", resp.Status)
	}
	lsn, err := strconv.ParseUint(resp.Header.Get("X-Repl-Snapshot-LSN"), 10, 64)
	if err != nil {
		return fmt.Errorf("snapshot response lacks X-Repl-Snapshot-LSN: %w", err)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("snapshot body: %w", err)
	}
	if err := f.cfg.Bootstrap(lsn, payload); err != nil {
		return fmt.Errorf("installing snapshot at lsn %d: %w", lsn, err)
	}
	// Only an installed snapshot adopts the primary's epoch: a crash
	// before it leaves ours behind, and the next stream bootstraps again.
	if e, err := strconv.ParseUint(resp.Header.Get("X-Repl-Epoch"), 10, 64); err == nil {
		f.observeEpoch(e)
	}
	f.snapshotInstalls.Add(1)
	f.logger.Info("installed snapshot", slog.Uint64("lsn", lsn), slog.Int("bytes", len(payload)))
	f.ack(lsn)
	return nil
}

// ack posts the applied watermark; failures are dropped (the next
// cadence retries and the stream itself is the liveness signal).
func (f *Follower) ack(lsn uint64) {
	if lsn == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(f.ctx, 2*time.Second)
	defer cancel()
	u := fmt.Sprintf("%s/v1/repl/ack?follower=%s&lsn=%d", f.cfg.PrimaryURL, url.QueryEscape(f.cfg.ID), lsn)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return
	}
	req.Header.Set("X-Repl-Epoch", strconv.FormatUint(f.cfg.Epoch(), 10))
	resp, err := f.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}
