// Package retry is the one retry discipline of the tree: the shipper,
// the alert webhook and the replication follower all wait between
// attempts the way Backoff.Delay says, read a server's wait hint with
// RetryAfter and sleep with Sleep.
package retry

import (
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Backoff is an exponential backoff with full jitter: retry number
// attempt (0 = the first) waits a uniform draw from [0, min(Max,
// Base·2^attempt)].
type Backoff struct{ Base, Max time.Duration }

// Delay returns the wait before retry number attempt. A positive hint —
// the server said when to come back — replaces the exponential ceiling
// and is jittered over [hint/2, hint]: every client refused in the same
// shed window gets the same hint, and honoring it exactly would march
// them all back in one thundering herd. rng is not locked here.
func (b Backoff) Delay(rng *rand.Rand, attempt int, hint time.Duration) time.Duration {
	if hint > 0 {
		return hint/2 + time.Duration(rng.Int63n(int64(hint/2)+1))
	}
	ceil := b.Base
	for ; attempt > 0 && ceil < b.Max; attempt-- {
		ceil *= 2
	}
	if ceil > b.Max {
		ceil = b.Max
	}
	if ceil <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(ceil) + 1))
}

// RetryAfter reads the wait a refusing server asked for: the
// millisecond X-Retry-After-Ms when present (Retry-After rounds an
// idle-queue "come right back" up to a whole second), else Retry-After
// in seconds; 0 when neither holds a positive integer.
func RetryAfter(h http.Header) time.Duration {
	if ms, err := strconv.ParseInt(h.Get("X-Retry-After-Ms"), 10, 64); err == nil && ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	if secs, err := strconv.ParseInt(h.Get("Retry-After"), 10, 64); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// Sleep waits for d, or returns ctx's error as soon as ctx is done.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
