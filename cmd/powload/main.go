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
//	powload -addr http://127.0.0.1:9090 -dataset traces/emmy \
//	        -fault -concurrency 1            # through a powchaos proxy
//
// Every pusher is a ship.Shipper: batches are stamped (AgentID, Seq)
// and delivered at-least-once with exponential backoff + jitter,
// honoring the server's Retry-After; the server's idempotent ingest
// turns that into exactly-once analytics. With -rate 0 (default)
// batches are pushed as fast as the server admits them.
//
// -fault targets an unreliable path (e.g. a powchaos proxy): retries
// are unlimited (bounded only by a five-minute delivery deadline), the
// summary reports retries/redeliveries/duplicates, and verification
// demands the server ingested *exactly* the samples sent — zero loss
// and zero double-counting. The exit status is non-zero if any sample
// is lost.
//
// -failover lists standby base URLs (comma-separated). Every shipper
// then delivers with replication-aware failover: a dead, fenced, or
// follower-answering target rotates to the next, and verification
// polls every listed server, accepting the highest ingested count —
// after a mid-run promotion the surviving primary holds the total.
//
// -anomaly injects synthetic jobs with known anomaly classes
// (flatline, zombie, overshoot, drift, plus "normal" controls) after
// the main load, and -anomaly-verify scores the server's fired alerts
// against that ground truth, failing the run when precision or recall
// drops below the -anomaly-precision / -anomaly-recall thresholds.
// -expect-no-alerts inverts the check for clean-control runs: any
// alert fire is a failure.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcpower"
	"hpcpower/internal/anomaly"
	"hpcpower/internal/obs"
	"hpcpower/internal/ship"
	"hpcpower/internal/trace"
)

// faultDeadline bounds delivery in -fault mode: retries are unlimited,
// so a dead server must still end the run.
const faultDeadline = 5 * time.Minute

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "powserved (or powchaos) base URL")
		dataset     = flag.String("dataset", "", "powsim dataset directory (required)")
		batchSize   = flag.Int("batch", 512, "samples per ingest request")
		concurrency = flag.Int("concurrency", 8, "concurrent pushers (one shipper each)")
		rate        = flag.Float64("rate", 0, "target samples/s across all pushers (0 = unthrottled)")
		maxSamples  = flag.Int("max-samples", 0, "stop after this many samples (0 = whole dataset)")
		retries     = flag.Int("retries", 8, "delivery attempts per batch without -fault (failed batches are dropped after)")
		fault       = flag.Bool("fault", false, "fault-injection mode: unlimited retries, strict zero-loss/zero-dup verification")
		agentPrefix = flag.String("agent", "powload", "agent ID prefix (one agent per pusher)")
		verify      = flag.Bool("verify", true, "verify the server's ingested count via /healthz afterwards")
		failover    = flag.String("failover", "", "comma-separated standby base URLs to fail over to")

		anomalySpec   = flag.String("anomaly", "", `inject synthetic anomaly jobs after the main load, comma-separated profile=count, e.g. "flatline=2,zombie=1,normal=4" ("normal" jobs are healthy controls; a repeated profile adds); keys:`+"\n"+anomaly.InjectSpec(nil).Usage())
		anomalyMin    = flag.Int("anomaly-minutes", 120, "minutes of telemetry per injected job")
		anomalyBase   = flag.Float64("anomaly-base-watts", 220, "healthy working power level for injected jobs")
		anomalyVerify = flag.Bool("anomaly-verify", false, "score the server's fired alerts against the injected ground truth (needs -anomaly)")
		anomalyPrec   = flag.Float64("anomaly-precision", 0.9, "minimum precision with -anomaly-verify")
		anomalyRec    = flag.Float64("anomaly-recall", 0.9, "minimum recall with -anomaly-verify")
		expectNoAlert = flag.Bool("expect-no-alerts", false, "fail if the server fired any alert (clean-control verification)")
		shipLog       = flag.Bool("ship-log", false, "log every shipper delivery with its trace ID to stderr (links a batch to its WAL record and any alert it fired)")
	)
	flag.Parse()
	if *dataset == "" && *anomalySpec == "" {
		fmt.Fprintln(os.Stderr, "usage: powload -dataset <dir> [-addr url] [-batch n] [-concurrency n] [-rate s/s] [-fault] [-anomaly spec]")
		os.Exit(2)
	}
	if *anomalyVerify && *anomalySpec == "" {
		fatal(fmt.Errorf("-anomaly-verify needs -anomaly"))
	}

	var samples []trace.PowerSample
	if *dataset != "" {
		ds, err := hpcpower.Load(*dataset)
		if err != nil {
			fatal(err)
		}
		samples = trace.FlattenSeries(ds)
		if len(samples) == 0 {
			fatal(fmt.Errorf("dataset %s has no time-resolved series", *dataset))
		}
		if *maxSamples > 0 && len(samples) > *maxSamples {
			samples = samples[:*maxSamples]
		}
	}

	// Pre-slice the batches; each shipper stamps and marshals on delivery
	// (the stamp is per-agent, so bodies cannot be shared across pushers).
	var batches [][]trace.PowerSample
	for off := 0; off < len(samples); off += *batchSize {
		end := off + *batchSize
		if end > len(samples) {
			end = len(samples)
		}
		batches = append(batches, samples[off:end])
	}
	// The delivery target list: -addr first (preferred), then any
	// -failover standbys. All verification polls every one of them.
	baseURLs := []string{*addr}
	for _, u := range strings.Split(*failover, ",") {
		if u = strings.TrimSpace(u); u != "" {
			baseURLs = append(baseURLs, u)
		}
	}
	ingestURLs := make([]string, len(baseURLs))
	for i, u := range baseURLs {
		ingestURLs[i] = strings.TrimSuffix(u, "/") + "/v1/samples"
	}

	mode := "clean"
	if *fault {
		mode = "fault-injection"
	}
	fmt.Printf("powload: %d samples in %d batches of ≤%d against %s (%s mode)\n",
		len(samples), len(batches), *batchSize, strings.Join(baseURLs, ", "), mode)

	ctx := context.Background()
	if *fault {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, faultDeadline)
		defer cancel()
	}
	maxAttempts := *retries + 1
	if *fault {
		maxAttempts = 0 // unlimited: the dedup window makes re-sends free
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var shipLogger *slog.Logger
	if *shipLog {
		lvl, err := obs.ParseLevel("debug")
		if err != nil {
			fatal(err)
		}
		shipLogger = obs.NewLogger(obs.LogConfig{Level: lvl, Format: "text", Output: os.Stderr})
	}
	// One histogram shared by every pusher: Observe is lock-free, so the
	// shippers never serialize on latency accounting (the sorted-slice
	// approach this replaces took a mutex per request).
	latency := obs.NewHistogram(obs.DefaultLatencyBuckets)
	var next atomic.Int64
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
			URLs:        ingestURLs,
			AgentID:     fmt.Sprintf("%s-%d", *agentPrefix, w),
			Client:      client,
			MaxAttempts: maxAttempts,
			Seed:        int64(w + 1),
			Logger:      shipLogger,
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
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batches) {
					return
				}
				if pace != nil {
					pace(len(batches[i]))
				}
				sh.Enqueue(batches[i])
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
		total.Failovers += st.Failovers
		total.Failbacks += st.Failbacks
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
	if n, err := scrapeCounter(client, baseURLs, "powserved_ingest_decode_fallback_total"); err == nil {
		fmt.Printf("powload: server decode fallbacks %d\n", n)
	} else {
		fmt.Printf("powload: server decode fallbacks unknown (%v)\n", err)
	}
	// Goodput is the acknowledged-sample rate over the whole run,
	// including time spent waiting out 429/503 windows — the number the
	// overload smoke compares against measured capacity.
	fmt.Printf("powload: overload: 429 responses %d, shed waits %d, degraded waits %d; goodput %.0f samples/s\n",
		resp429.Load(), total.ShedWaits, total.DegradedWaits,
		float64(total.ShippedSamples)/elapsed.Seconds())
	if len(baseURLs) > 1 {
		fmt.Printf("powload: failovers %d, failbacks %d\n", total.Failovers, total.Failbacks)
	}
	fmt.Printf("powload: lost samples %d (evicted batches %d, exhausted %d, poisoned %d)\n",
		total.DroppedSamples, total.EvictedBatches, total.ExhaustedBatch, total.PoisonedBatches)

	if *verify {
		ingested, err := pollIngested(client, baseURLs, total.ShippedSamples)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("powload: server ingested %d (shipped %d, sent %d)\n",
			ingested, total.ShippedSamples, len(samples))
		if *fault {
			// Zero loss and zero double-counting, exactly.
			if ingested != int64(len(samples)) {
				fatal(fmt.Errorf("fault mode: server ingested %d, want exactly %d (loss or double count)",
					ingested, len(samples)))
			}
			fmt.Printf("powload: fault mode verified: zero loss, zero double-counting\n")
		} else if ingested < total.ShippedSamples {
			fatal(fmt.Errorf("server ingested %d < shipped %d", ingested, total.ShippedSamples))
		}
	}
	if total.DroppedSamples > 0 {
		fatal(fmt.Errorf("%d samples lost in delivery", total.DroppedSamples))
	}

	// Anomaly injection runs after the main load so its sample-time
	// ordering is not interleaved with dataset traffic, and after the
	// main verification so the ingested-count checks stay exact.
	if *anomalySpec != "" {
		labels, injected, err := injectAnomalies(ctx, client, shipLogger, ingestURLs, *agentPrefix, *anomalySpec, *anomalyMin, *anomalyBase)
		if err != nil {
			fatal(err)
		}
		anomalous := 0
		for _, p := range labels {
			if p != anomaly.ProfileNormal {
				anomalous++
			}
		}
		fmt.Printf("powload: injected %d anomaly job(s) (%d anomalous, %d control) — %d samples\n",
			len(labels), anomalous, len(labels)-anomalous, injected)
		// Wait for the ingest queue to drain the injected batches: the
		// engine evaluates inside the ingest workers, so once the count
		// lands every fire the injection should cause has fired.
		if _, err := pollIngested(client, baseURLs, total.ShippedSamples+injected); err != nil {
			fatal(err)
		}
		if *anomalyVerify {
			if err := verifyAnomalies(client, baseURLs, labels, *anomalyPrec, *anomalyRec); err != nil {
				fatal(err)
			}
		}
	}
	if *expectNoAlert {
		fires, err := fetchFires(client, baseURLs)
		if err != nil {
			fatal(err)
		}
		if len(fires) > 0 {
			for _, ev := range fires {
				fmt.Fprintf(os.Stderr, "powload: unexpected alert: rule %s job %d node %d value %.3f (threshold %.3f)\n",
					ev.Rule, ev.Job, ev.Node, ev.Value, ev.Threshold)
			}
			fatal(fmt.Errorf("%d alert fire(s) on a workload expected to stay clean", len(fires)))
		}
		fmt.Println("powload: clean control verified: zero alert fires")
	}
}

// Injected jobs live in their own ID space so verification can tell
// them apart from dataset jobs, and their series start at a fixed
// epoch so runs are reproducible.
const (
	anomalyJobBase  = 9_000_000
	anomalyNodeBase = 90_000
	anomalyStartSec = 1_700_000_000
	// anomalyChunkMin is the injected batch granularity. Rules measure
	// min-duration in sample time, so batches must slice it finer than
	// the rule windows for the engine to observe conditions crossing
	// their thresholds.
	anomalyChunkMin = 5
)

// injectAnomalies synthesizes the labeled jobs from the inject spec
// and ships them through one dedicated shipper, time-ordered across
// all jobs in anomalyChunkMin-minute batches.
func injectAnomalies(ctx context.Context, client *http.Client, logger *slog.Logger, ingestURLs []string, agent, spec string, minutes int, baseW float64) (anomaly.Labels, int64, error) {
	counts, err := anomaly.ParseInjectSpec(spec)
	if err != nil {
		return nil, 0, err
	}
	labels := anomaly.Labels{}
	var series [][]trace.PowerSample
	// Stable profile order keeps job IDs deterministic across runs.
	profiles := append(anomaly.Profiles(), anomaly.ProfileNormal)
	i := 0
	for _, p := range profiles {
		for k := 0; k < counts[p]; k++ {
			job := uint64(anomalyJobBase + i)
			s, err := anomaly.GenProfile(p, job, anomalyNodeBase+i, anomalyStartSec, minutes, baseW, int64(1000+i))
			if err != nil {
				return nil, 0, err
			}
			labels[job] = p
			series = append(series, s)
			i++
		}
	}
	sh := ship.New(ship.Config{
		URLs:        ingestURLs,
		AgentID:     agent + "-anomaly",
		Client:      client,
		MaxAttempts: 9,
		Seed:        4242,
		Logger:      logger,
	})
	var shipped int64
	for off := 0; off < minutes; off += anomalyChunkMin {
		for _, s := range series {
			if off >= len(s) {
				continue
			}
			end := min(off+anomalyChunkMin, len(s))
			sh.Enqueue(s[off:end])
			if err := sh.Flush(ctx); err != nil {
				return nil, 0, err
			}
			shipped += int64(end - off)
		}
	}
	return labels, shipped, nil
}

// fetchFires reads the fire events from the first server that answers
// GET /v1/anomalies (after a failover, follower state tracking means
// any member holds the same alert history).
func fetchFires(client *http.Client, addrs []string) ([]anomaly.Event, error) {
	var lastErr error
	for _, addr := range addrs {
		resp, err := client.Get(strings.TrimSuffix(addr, "/") + "/v1/anomalies?type=fire&limit=256")
		if err != nil {
			lastErr = err
			continue
		}
		var body struct {
			Events []anomaly.Event `json:"events"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("%s/v1/anomalies: %s", addr, resp.Status)
			continue
		}
		if derr != nil {
			lastErr = derr
			continue
		}
		return body.Events, nil
	}
	return nil, fmt.Errorf("no server answered /v1/anomalies: %v", lastErr)
}

// verifyAnomalies polls the fired alerts and scores them against the
// injection ground truth until both thresholds hold or the deadline
// passes. Only fires on injected jobs are scored — the main dataset
// may carry its own (legitimately alertable) behavior; clean-workload
// silence is asserted separately by -expect-no-alerts.
func verifyAnomalies(client *http.Client, addrs []string, labels anomaly.Labels, minPrec, minRec float64) error {
	deadline := time.Now().Add(30 * time.Second)
	var v anomaly.Verdict
	for {
		fires, err := fetchFires(client, addrs)
		if err == nil {
			labeled := fires[:0:0]
			for _, ev := range fires {
				if _, ok := labels[ev.Job]; ok {
					labeled = append(labeled, ev)
				}
			}
			v = anomaly.Score(labels, labeled)
			if v.Precision >= minPrec && v.Recall >= minRec {
				fmt.Printf("powload: anomaly verification passed: %d/%d detected, precision %.2f, recall %.2f\n",
					v.Detected, v.Injected, v.Precision, v.Recall)
				return nil
			}
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("anomaly verification failed: precision %.2f (min %.2f), recall %.2f (min %.2f), detected %d/%d, missed %v, false fires on %v",
		v.Precision, minPrec, v.Recall, minRec, v.Detected, v.Injected, v.Missed, v.FalseJobs)
}

// pollIngested reads /healthz until some server has absorbed want
// samples or a deadline passes, and returns the final count. With
// multiple addrs (a failover run) every server is polled and the
// highest count wins — after a promotion the surviving primary is the
// one holding the total, and a dead old primary is simply skipped.
// Transient errors are retried — the path may run through a chaos
// proxy.
func pollIngested(client *http.Client, addrs []string, want int64) (int64, error) {
	deadline := time.Now().Add(15 * time.Second)
	var ingested int64 = -1
	var lastErr error
	for {
		for _, addr := range addrs {
			resp, err := client.Get(strings.TrimSuffix(addr, "/") + "/healthz")
			if err != nil {
				lastErr = err
				continue
			}
			var health struct {
				Ingested int64 `json:"ingested"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			if derr == nil && health.Ingested > ingested {
				ingested = health.Ingested
			}
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

// scrapeCounter sums an unlabeled counter over every reachable server's
// /metrics (a dead old primary is skipped, as in pollIngested).
func scrapeCounter(client *http.Client, addrs []string, name string) (int64, error) {
	var total int64
	err := fmt.Errorf("no %s series on /metrics", name)
	for _, addr := range addrs {
		resp, gerr := client.Get(strings.TrimSuffix(addr, "/") + "/metrics")
		if gerr != nil {
			if err != nil {
				err = gerr
			}
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
				if n, perr := strconv.ParseInt(v, 10, 64); perr == nil {
					total += n
					err = nil
				}
			}
		}
		resp.Body.Close()
	}
	return total, err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "powload: %v\n", err)
	os.Exit(1)
}
