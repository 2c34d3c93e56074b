#!/usr/bin/env sh
# Anomaly-detection smoke test of the streaming fingerprint pipeline:
#
#   powload -anomaly (labeled profiles) → powchaos (faults)
#                                         → powserved -anomaly
#                                           fingerprints → rules → alerts
#
# Three phases against race-built binaries:
#
#   1. Clean control: the fault-free synthetic paper workload (powsim
#      emmy) replayed through the default rule set must fire ZERO
#      alerts — the paper's structured job behavior (stable means,
#      10–12% overshoot envelope, phased shapes) is the negative class.
#   2. Detection under faults: labeled anomalous jobs (flatline,
#      zombie, overshoot, drift + normal controls) injected through a
#      fault-injecting proxy must be caught with precision ≥ 0.9 and
#      recall ≥ 0.9 against the ground truth, scored per-detector (a
#      zombie caught only by the flatline rule is a miss).
#   3. Trace chain: one fired alert's trace ID must grep from the
#      shipper's delivery log, through the server's WAL segments, to
#      the structured alert log line — one ID links the triggering
#      batch to its durable record and the page it caused.
#
# Nothing may panic anywhere.
set -eu

name=anomaly-smoke
workdir=$(mktemp -d)
server_pid=""
chaos_pid=""
trap 'kill $server_pid $chaos_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

. "$(dirname "$0")/lib.sh"
build_bins -race powsim powserved powchaos powload
gen_dataset

# ---- phase 1: clean control — zero alerts on the paper workload -----
echo "anomaly-smoke: phase 1: fault-free paper workload must stay silent"
mkdir -p "$workdir/data1"
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/data1" -anomaly \
    >"$workdir/srv1.log" 2>&1 &
server_pid=$!
addr1=$(wait_addr "$workdir/srv1.log")
"$workdir/powload" -addr "http://$addr1" -dataset "$workdir/traces/emmy" \
    -max-samples 60000 -expect-no-alerts \
    >"$workdir/load1.log" 2>&1 || {
    echo "anomaly-smoke: clean control failed"; cat "$workdir/load1.log"; exit 1; }
grep -q "clean control verified: zero alert fires" "$workdir/load1.log" || {
    echo "anomaly-smoke: clean-control verification line missing"; cat "$workdir/load1.log"; exit 1; }
[ "$(metric "$addr1" powserved_anomaly_enabled)" = "1" ] || {
    echo "anomaly-smoke: powserved_anomaly_enabled != 1"; exit 1; }
echo "anomaly-smoke: clean control silent across 60000 samples"
kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""

# ---- phase 2: labeled anomalies through the chaos proxy -------------
echo "anomaly-smoke: phase 2: injected anomalies through faults (precision/recall >= 0.9)"
mkdir -p "$workdir/data2"
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/data2" -anomaly \
    >"$workdir/srv2.log" 2>&1 &
server_pid=$!
addr2=$(wait_addr "$workdir/srv2.log")

# Fail-fast faults only: a dropped request would stall the sequential
# injection shipper on its client timeout, not exercise the server.
"$workdir/powchaos" -listen 127.0.0.1:0 -target "http://$addr2" \
    -err5xx 0.05 -truncate 0.02 -path /v1/samples -seed 7 \
    >"$workdir/chaos.log" 2>&1 &
chaos_pid=$!
chaos_addr=$(wait_addr "$workdir/chaos.log")

"$workdir/powload" -addr "http://$chaos_addr" \
    -anomaly "flatline=2,zombie=2,overshoot=2,drift=2,normal=4" \
    -anomaly-verify -anomaly-precision 0.9 -anomaly-recall 0.9 -ship-log \
    >"$workdir/load2.log" 2>"$workdir/ship2.log" || {
    echo "anomaly-smoke: detection run failed"; cat "$workdir/load2.log" "$workdir/ship2.log"; exit 1; }
grep -q "anomaly verification passed" "$workdir/load2.log" || {
    echo "anomaly-smoke: verification line missing"; cat "$workdir/load2.log"; exit 1; }
sed -n 's/^powload: \(anomaly verification passed.*\)/anomaly-smoke: \1/p' "$workdir/load2.log"

fired=$(curl -sf "http://$addr2/metrics" \
    | sed -n 's/^powserved_alert_fired_total{[^}]*} \([0-9]*\)/\1/p' \
    | awk '{s += $1} END {print s + 0}')
[ "${fired:-0}" -ge 4 ] || {
    echo "anomaly-smoke: expected >=4 fires across rules, got $fired"; exit 1; }
[ "$(metric "$addr2" 'powserved_alert_sink_healthy{sink="log"}')" = "1" ] || {
    echo "anomaly-smoke: log sink unhealthy"; exit 1; }

# ---- phase 3: one trace ID, three hops ------------------------------
echo "anomaly-smoke: phase 3: trace chain shipper log -> WAL -> alert"
trace=$(curl -sf "http://$addr2/v1/anomalies?type=fire&limit=1" \
    | sed -n 's/.*"trace":"\([^"]*\)".*/\1/p')
[ -n "$trace" ] || { echo "anomaly-smoke: fired alert carries no trace ID"; exit 1; }
grep -q "trace_id=$trace" "$workdir/ship2.log" || {
    echo "anomaly-smoke: trace $trace not in the shipper log"; exit 1; }
grep -aq "$trace" "$workdir/data2"/*.seg || {
    echo "anomaly-smoke: trace $trace not in the WAL segments"; exit 1; }
grep -q "msg=\"alert fire\".*trace_id=$trace" "$workdir/srv2.log" || {
    echo "anomaly-smoke: trace $trace not on the alert log line"; cat "$workdir/srv2.log"; exit 1; }
echo "anomaly-smoke: trace $trace links batch -> WAL -> alert"

kill -TERM $server_pid $chaos_pid 2>/dev/null || true
wait $server_pid 2>/dev/null || true
wait $chaos_pid 2>/dev/null || true
server_pid=""; chaos_pid=""

# ---- no panics anywhere --------------------------------------------
if grep -l "panic:" "$workdir"/srv*.log "$workdir"/chaos.log \
    "$workdir"/load*.log "$workdir"/ship2.log 2>/dev/null; then
    echo "anomaly-smoke: PANIC detected in logs above"; exit 1
fi

echo "anomaly-smoke: OK (clean control silent; precision/recall >= 0.9 under faults; trace chain intact)"
