// Command powchaos is a fault-injecting HTTP reverse proxy for chaos
// testing the telemetry delivery path: put it between agents (powload,
// ship.Shipper) and powserved and dial in packet loss, injected 5xx,
// added latency, connection resets, and response truncation.
//
// Usage:
//
//	powchaos -listen 127.0.0.1:0 -target http://127.0.0.1:8080 \
//	         -drop 0.05 -err5xx 0.05 -reset 0.03 -truncate 0.02 \
//	         -latency 5ms -jitter 5ms -path /v1/samples -seed 1
//
// Faults are injected only on paths matching -path ("" = all paths);
// everything else is forwarded untouched. The injection PRNG is seeded,
// so a chaos run is reproducible. SIGINT/SIGTERM stop the proxy and
// print the injection counters.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hpcpower/internal/chaos"
	"hpcpower/internal/obs"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "proxy listen address (:0 picks a free port)")
		target    = flag.String("target", "", "backend base URL (required), e.g. http://127.0.0.1:8080")
		drop      = flag.Float64("drop", 0, "probability of silently dropping a request (never forwarded)")
		err5xx    = flag.Float64("err5xx", 0, "probability of answering 502 without forwarding")
		reset     = flag.Float64("reset", 0, "probability of forwarding, then resetting the connection (response lost)")
		truncate  = flag.Float64("truncate", 0, "probability of forwarding, then truncating the response body")
		latency   = flag.Duration("latency", 0, "added latency before forwarding")
		jitter    = flag.Duration("jitter", 0, "uniform ± jitter on the added latency")
		path      = flag.String("path", "", "inject faults only on this path prefix (\"\" = all)")
		seed      = flag.Int64("seed", 1, "fault-injection PRNG seed")
		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", `structured log format: "text" or "json"`)
	)
	flag.Parse()
	if *target == "" {
		fmt.Fprintln(os.Stderr, "usage: powchaos -target http://host:port [-listen addr] [-drop p] [-err5xx p] [-reset p] [-truncate p] [-latency d] [-path prefix]")
		os.Exit(2)
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger := obs.NewLogger(obs.LogConfig{Level: level, Format: *logFormat, Output: os.Stderr})

	p, err := chaos.New(chaos.Config{
		Target:   *target,
		DropRate: *drop, Err5xxRate: *err5xx,
		ResetRate: *reset, TruncateRate: *truncate,
		Latency: *latency, Jitter: *jitter,
		PathPrefix: *path,
		Seed:       *seed,
		Logger:     logger,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bound, done, err := p.ListenAndServe(ctx, *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("powchaos: listening on %s -> %s (drop %.0f%%, 5xx %.0f%%, reset %.0f%%, truncate %.0f%%, latency %s±%s)\n",
		bound, *target, 100**drop, 100**err5xx, 100**reset, 100**truncate, *latency, *jitter)

	start := time.Now()
	if err := <-done; err != nil {
		fatal(err)
	}
	st := p.Stats()
	out, _ := json.Marshal(st)
	fmt.Printf("powchaos: stopped after %s: %s\n", time.Since(start).Round(time.Second), out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "powchaos: %v\n", err)
	os.Exit(1)
}
