package retry

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"testing"
	"time"
)

func TestDelayExponentialCeilingWithFullJitter(t *testing.T) {
	b := Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	rng := rand.New(rand.NewSource(1))
	ceilings := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000}
	for attempt, c := range ceilings {
		ceil := c * time.Millisecond
		var hi time.Duration
		for i := 0; i < 2000; i++ {
			d := b.Delay(rng, attempt, 0)
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, ceil)
			}
			hi = max(hi, d)
		}
		// Full jitter reaches the top of the range, not just its mean.
		if hi < ceil*9/10 {
			t.Errorf("attempt %d: largest of 2000 draws is %v, want near %v", attempt, hi, ceil)
		}
	}
	// A huge attempt count or base must not overflow into a negative shift.
	if d := b.Delay(rng, 1<<30, 0); d < 0 || d > b.Max {
		t.Fatalf("attempt 2^30: delay %v outside [0, %v]", d, b.Max)
	}
	if d := (Backoff{Base: time.Duration(1) << 62, Max: time.Minute}).Delay(rng, 5, 0); d < 0 || d > time.Minute {
		t.Fatalf("huge base: delay %v outside [0, 1m]", d)
	}
	if d := (Backoff{}).Delay(rng, 3, 0); d != 0 {
		t.Fatalf("zero Backoff: delay %v, want 0", d)
	}
}

func TestDelayJittersHintOverUpperHalf(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
	rng := rand.New(rand.NewSource(7))
	lo, hi := time.Hour, time.Duration(0)
	for i := 0; i < 2000; i++ {
		d := b.Delay(rng, 0, time.Second) // the hint wins over Max
		if d < 500*time.Millisecond || d > time.Second {
			t.Fatalf("hinted delay %v outside [500ms, 1s]", d)
		}
		lo, hi = min(lo, d), max(hi, d)
	}
	if hi-lo < 400*time.Millisecond {
		t.Fatalf("hinted delays span only %v..%v: the herd is not spread", lo, hi)
	}
	if d := b.Delay(rng, 0, 1); d < 0 || d > 1 {
		t.Fatalf("1ns hint: delay %v", d)
	}
}

func TestRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		ms, secs string
		want     time.Duration
	}{
		{"", "", 0},
		{"200", "30", 200 * time.Millisecond}, // the millisecond hint wins
		{"", "2", 2 * time.Second},
		{"0", "3", 3 * time.Second},
		{"junk", "1", time.Second},
		{"-5", "", 0},
		{"", "soon", 0},
		{"", "-1", 0},
	} {
		h := http.Header{}
		if tc.ms != "" {
			h.Set("X-Retry-After-Ms", tc.ms)
		}
		if tc.secs != "" {
			h.Set("Retry-After", tc.secs)
		}
		if got := RetryAfter(h); got != tc.want {
			t.Errorf("RetryAfter(ms=%q, s=%q) = %v, want %v", tc.ms, tc.secs, got, tc.want)
		}
	}
}

func TestSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	if err := Sleep(ctx, 0); err != nil {
		t.Fatalf("Sleep(0) = %v", err)
	}
	start := time.Now()
	if err := Sleep(ctx, 20*time.Millisecond); err != nil || time.Since(start) < 20*time.Millisecond {
		t.Fatalf("Sleep(20ms) = %v after %v", err, time.Since(start))
	}
	time.AfterFunc(10*time.Millisecond, cancel)
	start = time.Now()
	if err := Sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Sleep = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancelled Sleep returned after %v", time.Since(start))
	}
	if err := Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep(0) on a done context = %v, want context.Canceled", err)
	}
}
