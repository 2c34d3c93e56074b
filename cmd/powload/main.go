// Command powload replays a powsim dataset's time-resolved telemetry
// against a running powserved instance and reports the achieved
// throughput and tail latencies — the load generator behind the serving
// layer's performance and fault-tolerance acceptance.
//
// Usage:
//
//	powload -addr http://127.0.0.1:8080 -dataset traces/emmy
//	powload -addr http://127.0.0.1:8080 -dataset traces/emmy \
//	        -batch 512 -concurrency 8 -rate 100000 -max-samples 2000000
//
// Every pusher is a ship.Shipper: batches are stamped (AgentID, Seq)
// and delivered at-least-once with exponential backoff + jitter,
// honoring the server's Retry-After; the server's idempotent ingest
// turns that into exactly-once analytics. With -rate 0 (default)
// batches are pushed as fast as the server admits them. The exit status
// is non-zero if any sample is lost.
//
// Delivery through faults, failover, overload and anomaly detection are
// checked in-process by the internal/serve rounds (TestFailoverRounds,
// TestOverloadRounds, TestAnomalyRounds).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower"
	"hpcpower/internal/obs"
	"hpcpower/internal/ship"
	"hpcpower/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "powserved base URL")
		dataset     = flag.String("dataset", "", "powsim dataset directory (required)")
		batchSize   = flag.Int("batch", 512, "samples per ingest request")
		concurrency = flag.Int("concurrency", 8, "concurrent pushers (one shipper each)")
		rate        = flag.Float64("rate", 0, "target samples/s across all pushers (0 = unthrottled)")
		maxSamples  = flag.Int("max-samples", 0, "stop after this many samples (0 = whole dataset)")
		retries     = flag.Int("retries", 8, "delivery attempts per batch (failed batches are dropped after)")
		agentPrefix = flag.String("agent", "powload", "agent ID prefix (one agent per pusher)")
		verify      = flag.Bool("verify", true, "verify the server's ingested count via /healthz afterwards")
	)
	flag.Parse()
	if *dataset == "" {
		fmt.Fprintln(os.Stderr, "usage: powload -dataset <dir> [-addr url] [-batch n] [-concurrency n] [-rate s/s]")
		os.Exit(2)
	}

	ds, err := hpcpower.Load(*dataset)
	if err != nil {
		fatal(err)
	}
	samples := trace.FlattenSeries(ds)
	if len(samples) == 0 {
		fatal(fmt.Errorf("dataset %s has no time-resolved series", *dataset))
	}
	if *maxSamples > 0 && len(samples) > *maxSamples {
		samples = samples[:*maxSamples]
	}

	// Each pusher ships whole jobs, the least loaded taking the next one,
	// in batches pre-sliced from its stream: a job's readings then arrive
	// in the order they were taken, as from an agent in front of the
	// job's nodes, and none comes behind its trend (powserved's
	// powserved_job_late_samples_total). Each shipper stamps and marshals
	// on delivery (the stamp is per-agent, so bodies cannot be shared).
	streams := make([][]trace.PowerSample, *concurrency)
	for at := 0; at < len(samples); {
		end := at + 1
		for end < len(samples) && samples[end].JobID == samples[at].JobID {
			end++
		}
		w := 0
		for i := range streams {
			if len(streams[i]) < len(streams[w]) {
				w = i
			}
		}
		streams[w] = append(streams[w], samples[at:end]...)
		at = end
	}
	batches, nBatches := make([][][]trace.PowerSample, *concurrency), 0
	for w, stream := range streams {
		for off := 0; off < len(stream); off += *batchSize {
			batches[w] = append(batches[w], stream[off:min(off+*batchSize, len(stream))])
		}
		nBatches += len(batches[w])
	}
	base := strings.TrimSuffix(*addr, "/")
	fmt.Printf("powload: %d samples in %d batches of ≤%d against %s\n",
		len(samples), nBatches, *batchSize, base)

	ctx := context.Background()
	client := &http.Client{Timeout: 30 * time.Second}
	// One histogram shared by every pusher: Observe is lock-free, so the
	// shippers never serialize on latency accounting (the sorted-slice
	// approach this replaces took a mutex per request).
	latency := obs.NewHistogram(obs.DefaultLatencyBuckets)
	// Overload accounting: raw 429 answers seen on the wire (the server
	// shedding), complementing the shippers' shed/degraded wait counters.
	var resp429 atomic.Int64
	// Token-bucket pacing shared by all pushers (when -rate > 0).
	var pace func(n int)
	if *rate > 0 {
		interval := float64(time.Second) / *rate
		var clock atomic.Int64
		clock.Store(time.Now().UnixNano())
		pace = func(n int) {
			due := clock.Add(int64(interval * float64(n)))
			if wait := due - time.Now().UnixNano(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
		}
	}

	start := time.Now()
	shippers := make([]*ship.Shipper, *concurrency)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		shippers[w] = ship.New(ship.Config{
			URL:         base + "/v1/samples",
			AgentID:     fmt.Sprintf("%s-%d", *agentPrefix, w),
			Client:      client,
			MaxAttempts: *retries + 1,
			Seed:        int64(w + 1),
			Observe: func(d time.Duration, status int, err error) {
				if err == nil && status == http.StatusAccepted {
					latency.ObserveDuration(d)
				}
				if status == http.StatusTooManyRequests {
					resp429.Add(1)
				}
			},
		})
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := shippers[w]
			for _, b := range batches[w] {
				if pace != nil {
					pace(len(b))
				}
				sh.Enqueue(b)
				if err := sh.Flush(ctx); err != nil {
					fatal(fmt.Errorf("pusher %d: %w", w, err))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total ship.Stats
	for _, sh := range shippers {
		st := sh.Stats()
		total.ShippedBatches += st.ShippedBatches
		total.ShippedSamples += st.ShippedSamples
		total.Duplicates += st.Duplicates
		total.Retries += st.Retries
		total.Redeliveries += st.Redeliveries
		total.EvictedBatches += st.EvictedBatches
		total.DroppedSamples += st.DroppedSamples
		total.ExhaustedBatch += st.ExhaustedBatch
		total.PoisonedBatches += st.PoisonedBatches
		total.DegradedWaits += st.DegradedWaits
		total.ShedWaits += st.ShedWaits
		total.BreakerOpens += st.BreakerOpens
	}

	fmt.Printf("powload: pushed %d samples in %.2fs\n", total.ShippedSamples, elapsed.Seconds())
	fmt.Printf("powload: throughput %.0f samples/s, %.0f req/s\n",
		float64(total.ShippedSamples)/elapsed.Seconds(), float64(latency.Count())/elapsed.Seconds())
	fmt.Printf("powload: ingest latency p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
		1e3*latency.Quantile(0.50), 1e3*latency.Quantile(0.90), 1e3*latency.Quantile(0.99), 1e3*latency.Max())
	fmt.Printf("powload: retries %d, redeliveries %d, duplicates absorbed %d, breaker opens %d\n",
		total.Retries, total.Redeliveries, total.Duplicates, total.BreakerOpens)
	// Batches the server's single-pass decoder handed to encoding/json:
	// anything but 0 means some sender left the canonical wire form.
	// Late samples missed their job's anomaly trend: anything but 0
	// means the pushers did not keep each job's readings in time order.
	for _, c := range [...]struct{ what, name string }{
		{"decode fallbacks", "powserved_ingest_decode_fallback_total"},
		{"late samples", "powserved_job_late_samples_total"},
	} {
		if n, err := scrapeCounter(client, base, c.name); err == nil {
			fmt.Printf("powload: server %s %d\n", c.what, n)
		} else {
			fmt.Printf("powload: server %s unknown (%v)\n", c.what, err)
		}
	}
	// Goodput is the acknowledged-sample rate over the whole run,
	// including time spent waiting out 429/503 windows.
	fmt.Printf("powload: overload: 429 responses %d, shed waits %d, degraded waits %d; goodput %.0f samples/s\n",
		resp429.Load(), total.ShedWaits, total.DegradedWaits,
		float64(total.ShippedSamples)/elapsed.Seconds())
	fmt.Printf("powload: lost samples %d (evicted batches %d, exhausted %d, poisoned %d)\n",
		total.DroppedSamples, total.EvictedBatches, total.ExhaustedBatch, total.PoisonedBatches)

	if *verify {
		ingested, err := pollIngested(client, base, total.ShippedSamples)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("powload: server ingested %d (shipped %d, sent %d)\n",
			ingested, total.ShippedSamples, len(samples))
		if ingested < total.ShippedSamples {
			fatal(fmt.Errorf("server ingested %d < shipped %d", ingested, total.ShippedSamples))
		}
	}
	if total.DroppedSamples > 0 {
		fatal(fmt.Errorf("%d samples lost in delivery", total.DroppedSamples))
	}
}

// pollIngested reads /healthz until the server has absorbed want samples
// or a deadline passes, and returns the final count. Transient errors are
// retried.
func pollIngested(client *http.Client, base string, want int64) (int64, error) {
	deadline := time.Now().Add(15 * time.Second)
	var ingested int64 = -1
	var lastErr error
	for {
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			lastErr = err
		} else {
			var health struct {
				Ingested int64 `json:"ingested"`
			}
			if json.NewDecoder(resp.Body).Decode(&health) == nil {
				ingested = health.Ingested
			}
			resp.Body.Close()
		}
		if ingested >= want {
			return ingested, nil
		}
		if time.Now().After(deadline) {
			if ingested < 0 {
				return 0, fmt.Errorf("healthz unreachable: %v", lastErr)
			}
			return ingested, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// scrapeCounter reads an unlabeled counter from the server's /metrics.
func scrapeCounter(client *http.Client, base, name string) (int64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s series on /metrics", name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "powload: %v\n", err)
	os.Exit(1)
}
