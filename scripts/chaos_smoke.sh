#!/usr/bin/env sh
# Chaos smoke test of the fault-tolerant delivery path:
#
#   powsim dataset → powload (ship.Shipper) → powchaos (≥10% injected
#   faults: drops + 5xx + resets + truncation + latency) → powserved
#
# compared against a fault-free replay of the same trace. Asserts zero
# sample loss and zero double-counting: the store-wide totals match
# exactly, and every per-job streaming characterization matches the
# fault-free run to numerical tolerance. Binaries are built -race.
set -eu

name=chaos-smoke
workdir=$(mktemp -d)
server_pid=""
proxy_pid=""
trap 'kill $server_pid $proxy_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

. "$(dirname "$0")/lib.sh"
build_bins -race powsim powserved powchaos powload
gen_dataset

MAX_SAMPLES=40000

# ---- run 1: fault-free baseline -------------------------------------
# One ingest worker and one pusher keep sample order identical across
# runs, so the streaming analytics are comparable number for number.
echo "chaos-smoke: baseline replay (fault-free)"
"$workdir/powserved" -addr 127.0.0.1:0 -workers 1 >"$workdir/base.log" 2>&1 &
server_pid=$!
base_addr=$(wait_addr "$workdir/base.log")
"$workdir/powload" -addr "http://$base_addr" -dataset "$workdir/traces/emmy" \
    -batch 256 -concurrency 1 -max-samples $MAX_SAMPLES
dump_state "http://$base_addr" "$workdir/baseline"
kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""

# ---- run 2: through the chaos proxy ---------------------------------
echo "chaos-smoke: chaos replay (drop 5% + 5xx 4% + reset 3% + truncate 2% + 2ms latency)"
"$workdir/powserved" -addr 127.0.0.1:0 -workers 1 >"$workdir/chaos-srv.log" 2>&1 &
server_pid=$!
srv_addr=$(wait_addr "$workdir/chaos-srv.log")
"$workdir/powchaos" -listen 127.0.0.1:0 -target "http://$srv_addr" \
    -drop 0.05 -err5xx 0.04 -reset 0.03 -truncate 0.02 \
    -latency 2ms -jitter 2ms -path /v1/samples -seed 7 >"$workdir/chaos.log" 2>&1 &
proxy_pid=$!
proxy_addr=$(wait_addr "$workdir/chaos.log")

# powload -fault: unlimited retries, and the verify step demands the
# server ingested *exactly* the samples sent — zero loss, zero dup.
"$workdir/powload" -addr "http://$proxy_addr" -dataset "$workdir/traces/emmy" \
    -batch 256 -concurrency 1 -max-samples $MAX_SAMPLES -fault \
    | tee "$workdir/load.log"
grep -q "fault mode verified: zero loss, zero double-counting" "$workdir/load.log" || {
    echo "chaos-smoke: powload did not verify zero loss"; exit 1; }

# The faults must actually have fired.
retries=$(sed -n 's/^powload: retries \([0-9]*\),.*/\1/p' "$workdir/load.log")
[ "${retries:-0}" -gt 0 ] || { echo "chaos-smoke: no retries — chaos did not bite"; exit 1; }

dump_state "http://$srv_addr" "$workdir/chaos-jobs"

echo "chaos-smoke: checking delivery-health counters on /metrics"
curl -sf "http://$srv_addr/metrics" >"$workdir/metrics.txt"
for metric in powserved_batches_duplicate_total powserved_redeliveries_total \
    powserved_agent_breaker_state powserved_agent_retries powserved_agent_spill_depth; do
    grep -q "$metric" "$workdir/metrics.txt" || {
        echo "chaos-smoke: /metrics missing $metric"; exit 1; }
done
dups=$(sed -n 's/^powserved_batches_duplicate_total \([0-9]*\)$/\1/p' "$workdir/metrics.txt")
echo "chaos-smoke: server absorbed ${dups:-0} duplicate batches"

# ---- compare: chaos run must equal the baseline ---------------------
echo "chaos-smoke: comparing per-job analytics against the baseline"
cmp -s "$workdir/baseline/ids" "$workdir/chaos-jobs/ids" || {
    echo "chaos-smoke: job sets differ"; exit 1; }
njobs=0
while read -r id; do
    [ -n "$id" ] || continue
    njobs=$((njobs + 1))
    # Flatten both JSON objects to key:value lines and compare values
    # numerically (relative tolerance 1e-6 absorbs the one map-order
    # float fold in the spread snapshot; everything else is exact).
    for f in baseline chaos-jobs; do
        tr -d '{}"' <"$workdir/$f/job-$id.json" | tr ',' '\n' >"$workdir/$f/job-$id.flat"
    done
    if ! paste -d' ' "$workdir/baseline/job-$id.flat" "$workdir/chaos-jobs/job-$id.flat" | awk '
        {
            n1 = split($1, a, ":"); n2 = split($2, b, ":");
            if (n1 != 2 || n2 != 2 || a[1] != b[1]) { print "  key mismatch: " $0; bad = 1; next }
            x = a[2] + 0; y = b[2] + 0;
            d = x - y; if (d < 0) d = -d;
            m = x; if (m < 0) m = -m;
            my = y; if (my < 0) my = -my;
            if (my > m) m = my;
            if (m < 1) m = 1;
            if (d > 1e-6 * m) { print "  " a[1] ": " x " != " y; bad = 1 }
        }
        END { exit bad }'; then
        echo "chaos-smoke: job $id diverged from the fault-free run"
        exit 1
    fi
done <"$workdir/baseline/ids"
echo "chaos-smoke: $njobs jobs identical to the fault-free run"

echo "chaos-smoke: graceful shutdown"
kill -TERM $proxy_pid && wait $proxy_pid 2>/dev/null || true
proxy_pid=""
kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""

echo "chaos-smoke: OK (zero loss, zero double-counting at ≥10% injected faults)"
