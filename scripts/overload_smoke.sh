#!/usr/bin/env sh
# Overload smoke test of the admission-control layer:
#
#   powsim dataset → powload (ship.Shipper, -fault) → powchaos (faults)
#                                                      → powserved primary
#                                                        ⇣ WAL replication
#                                                     powserved follower
#
# Three phases against race-built binaries:
#
#   0. Capacity: a clean durable run measures the node's goodput
#      (acked samples/s). That number calibrates phase 1.
#   1. Overload: the same durable pipeline — now with a follower, a
#      fault-injecting proxy, and a per-agent admission ceiling at
#      70% of capacity — is driven by double the calibration
#      concurrency, so the offered load is well past what admission
#      accepts. The server must shed the overage (429 over_capacity)
#      instead of falling over: zero process deaths, zero loss / zero
#      double-counting for acked batches, goodput tracking the
#      admitted ceiling (the shippers self-pace on the token-refill
#      retry hints instead of collapsing into a retry storm), bounded
#      accounted memory, replication lag drained, and shedding frozen
#      once the load stops.
#   2. Memory watermark: a memory-only server with a small watermark
#      must flip powserved_mem_degraded 1 under a burst of fat
#      batches, shed ingest with 429 over_capacity while degraded,
#      clear the flag on its own once the queue drains (hysteresis),
#      and still finish the run with zero loss. A second, tiny
#      watermark pins degraded mode to verify the full 429 surface
#      (code, X-Over-Capacity, Retry-After, X-Retry-After-Ms) and
#      /readyz reporting while reads keep serving.
#
# Nothing may panic anywhere.
set -eu

name=overload-smoke
workdir=$(mktemp -d)
server_pid=""
follower_pid=""
chaos_pid=""
load_pid=""
trap 'kill $server_pid $follower_pid $chaos_pid $load_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

. "$(dirname "$0")/lib.sh"
build_bins -race powsim powserved powchaos powload
gen_dataset

MAX_SAMPLES=60000

# shed_total <addr>: sum of powserved_admit_shed_total across reasons.
shed_total() {
    curl -sf "http://$1/metrics" \
        | sed -n 's/^powserved_admit_shed_total{[^}]*} \([0-9]*\)/\1/p' \
        | awk '{s += $1} END {print s + 0}'
}

# goodput <loadlog>: the acked-samples/s figure powload printed.
goodput() {
    sed -n 's/.*goodput \([0-9]*\) samples\/s.*/\1/p' "$1" | head -n1
}

# ---- phase 0: measure clean capacity --------------------------------
echo "overload-smoke: phase 0: measuring clean durable capacity"
mkdir -p "$workdir/data0"
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/data0" \
    >"$workdir/run0.log" 2>&1 &
server_pid=$!
addr=$(wait_addr "$workdir/run0.log")
"$workdir/powload" -addr "http://$addr" -dataset "$workdir/traces/emmy" \
    -batch 512 -concurrency 8 -max-samples $MAX_SAMPLES \
    >"$workdir/load0.log" 2>&1 || {
    echo "overload-smoke: clean capacity run failed"; cat "$workdir/load0.log"; exit 1; }
kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""
CAP=$(goodput "$workdir/load0.log")
[ "${CAP:-0}" -gt 0 ] || {
    echo "overload-smoke: could not measure capacity"; cat "$workdir/load0.log"; exit 1; }
echo "overload-smoke: measured capacity $CAP samples/s"

# ---- phase 1: overload against primary+follower+chaos ---------------
# Synchronous shippers cannot offer more samples/s than the server
# acks, so the overload is built two ways at once: double the
# calibration concurrency (16 pushers vs. the 8 that measured CAP)
# against a per-agent token-bucket ceiling at 70% of CAP with a tiny
# burst. Each pusher can physically offer ~1/RTT batches/s — well
# above its bucket's refill — so refusals are guaranteed, while the
# precise token-refill Retry-After hints let the fleet self-pace at
# the admitted ceiling instead of collapsing into a retry storm.
AGENT_RATE=$(awk "BEGIN {printf \"%.3f\", 0.7 * $CAP / (16 * 512)}")
echo "overload-smoke: phase 1: 16 pushers vs per-agent ceiling ${AGENT_RATE} batches/s (70% of capacity)"
mkdir -p "$workdir/pri-data" "$workdir/fol-data"
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/pri-data" \
    -admit "agent-rate=$AGENT_RATE,agent-burst=2,mem-watermark=64MiB" \
    >"$workdir/pri.log" 2>&1 &
server_pid=$!
pri_addr=$(wait_addr "$workdir/pri.log")
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/fol-data" \
    -role follower -follow "http://$pri_addr" -follower-id standby \
    >"$workdir/fol.log" 2>&1 &
follower_pid=$!
fol_addr=$(wait_addr "$workdir/fol.log")

# Fail-fast faults only (no drops: a swallowed request stalls the
# client on its timeout and measures the proxy, not the server).
"$workdir/powchaos" -listen 127.0.0.1:0 -target "http://$pri_addr" \
    -err5xx 0.03 -truncate 0.02 -path /v1/samples -seed 7 \
    >"$workdir/chaos.log" 2>&1 &
chaos_pid=$!
chaos_addr=$(wait_addr "$workdir/chaos.log")

"$workdir/powload" -addr "http://$chaos_addr" -dataset "$workdir/traces/emmy" \
    -batch 512 -concurrency 16 -max-samples $MAX_SAMPLES -fault \
    >"$workdir/load1.log" 2>&1 &
load_pid=$!

# Sample accounted memory while the overload runs: it must stay under
# the watermark (the load is CPU-bound, not memory-bound).
mem_max=0
while kill -0 $load_pid 2>/dev/null; do
    m=$(metric "$pri_addr" powserved_mem_bytes | cut -d. -f1)
    [ "${m:-0}" -gt "$mem_max" ] && mem_max=$m
    sleep 0.2
done
wait $load_pid || { echo "overload-smoke: overload run failed"; cat "$workdir/load1.log"; exit 1; }
load_pid=""

kill -0 $server_pid 2>/dev/null || { echo "overload-smoke: primary died under overload"; cat "$workdir/pri.log"; exit 1; }
kill -0 $follower_pid 2>/dev/null || { echo "overload-smoke: follower died under overload"; cat "$workdir/fol.log"; exit 1; }

grep -q "fault mode verified: zero loss, zero double-counting" "$workdir/load1.log" || {
    echo "overload-smoke: overload run lost or double-counted acked data"; cat "$workdir/load1.log"; exit 1; }
echo "overload-smoke: zero loss, zero double-counting under 2x load"

shed=$(shed_total "$pri_addr")
[ "${shed:-0}" -ge 1 ] || {
    echo "overload-smoke: server never shed at 2x capacity (powserved_admit_shed_total=$shed)"; exit 1; }
grep -q "429 responses [1-9]" "$workdir/load1.log" || {
    echo "overload-smoke: shippers saw no 429s under overload"; cat "$workdir/load1.log"; exit 1; }
GOOD=$(goodput "$workdir/load1.log")
# Goodput must track the admitted ceiling (70% of CAP): floor at 55%
# of CAP, the margin absorbing the jittered waits' refill overshoot
# and race-scheduler variance between the two measurement runs.
FLOOR=$(awk "BEGIN {printf \"%.0f\", 0.55 * $CAP}")
[ "${GOOD:-0}" -ge "$FLOOR" ] || {
    echo "overload-smoke: goodput $GOOD < $FLOOR (55% of capacity $CAP) under shed"; cat "$workdir/load1.log"; exit 1; }
echo "overload-smoke: shed $shed requests, goodput $GOOD samples/s vs capacity $CAP (ceiling 70%)"

WATERMARK=$((64 * 1024 * 1024))
[ "$mem_max" -lt "$WATERMARK" ] || {
    echo "overload-smoke: accounted memory $mem_max breached the ${WATERMARK}B watermark"; exit 1; }
[ "$(metric "$pri_addr" powserved_mem_degraded)" = "0" ] || {
    echo "overload-smoke: node went memory-degraded under a CPU-bound overload"; exit 1; }
echo "overload-smoke: accounted memory bounded (peak $mem_max < $WATERMARK)"

# Replication kept up: the follower drains to zero lag within seconds.
wait_metric "$fol_addr" powserved_repl_lag_records 0 100 || {
    cat "$workdir/fol.log"; exit 1; }
echo "overload-smoke: follower replication lag drained to 0"

# Load is gone: shedding must freeze within one Retry-After window
# (occupancy hints are sub-second; 1.5s covers the 1s floor).
shed_before=$(shed_total "$pri_addr")
sleep 1.5
shed_after=$(shed_total "$pri_addr")
[ "$shed_before" = "$shed_after" ] || {
    echo "overload-smoke: still shedding after the load stopped ($shed_before -> $shed_after)"; exit 1; }
echo "overload-smoke: shedding frozen after the load stopped"

kill -TERM $server_pid $follower_pid $chaos_pid 2>/dev/null || true
wait $server_pid 2>/dev/null || true
wait $follower_pid 2>/dev/null || true
wait $chaos_pid 2>/dev/null || true
server_pid=""; follower_pid=""; chaos_pid=""

# ---- phase 2a: memory watermark crossed and cleared -----------------
echo "overload-smoke: phase 2a: memory watermark drill (2MiB, fat batches)"
# min-inflight=48 pins the AIMD limiter above the pusher count so the
# limiter cannot decay to its default floor and quietly cap how many
# fat batches sit queued (that cap would hold accounted memory just
# *under* the watermark).
"$workdir/powserved" -addr 127.0.0.1:0 -ring 64 \
    -admit "step=20ms,min-inflight=48,mem-watermark=2MiB" \
    >"$workdir/run2.log" 2>&1 &
server_pid=$!
addr2=$(wait_addr "$workdir/run2.log")

# 32 concurrent pushers x 2048-sample batches (~96KiB accounted each)
# keep ~2.8MiB of queued batches accounted while the run lasts — past
# the 2MiB watermark — while the rings-plus-jobs baseline stays under
# the 1.6MiB resume level, so degraded mode must both trip and clear
# on its own.
"$workdir/powload" -addr "http://$addr2" -dataset "$workdir/traces/emmy" \
    -batch 2048 -concurrency 32 -max-samples 150000 -fault \
    >"$workdir/load2.log" 2>&1 || {
    echo "overload-smoke: watermark run failed"; cat "$workdir/load2.log"; exit 1; }

grep -q "fault mode verified: zero loss, zero double-counting" "$workdir/load2.log" || {
    echo "overload-smoke: watermark run lost acked data"; cat "$workdir/load2.log"; exit 1; }
mem_shed=$(curl -sf "http://$addr2/metrics" \
    | sed -n 's/^powserved_admit_shed_total{reason="memory"} \([0-9]*\)/\1/p')
[ "${mem_shed:-0}" -ge 1 ] || {
    echo "overload-smoke: memory pressure never shed ingest (shed{memory}=$mem_shed)"; cat "$workdir/run2.log"; exit 1; }
transitions=$(metric "$addr2" powserved_mem_transitions_total | cut -d. -f1)
[ "${transitions:-0}" -ge 2 ] || {
    echo "overload-smoke: expected degrade+clear, got $transitions transitions"; exit 1; }
wait_metric "$addr2" powserved_mem_degraded 0 100 || {
    cat "$workdir/run2.log"; exit 1; }
echo "overload-smoke: watermark tripped ($mem_shed sheds, $transitions transitions) and cleared; zero loss"
kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""

# ---- phase 2b: pinned degraded mode — the 429 surface ---------------
echo "overload-smoke: phase 2b: pinned watermark (16KiB) — 429 surface"
"$workdir/powserved" -addr 127.0.0.1:0 -ring 64 \
    -admit "step=20ms,mem-watermark=16KiB" \
    >"$workdir/run3.log" 2>&1 &
server_pid=$!
addr3=$(wait_addr "$workdir/run3.log")

# One accepted batch across 24 nodes puts the rings alone (~26KiB) past
# the 16KiB watermark: degraded mode pins on and cannot clear.
samples=""
i=0
while [ $i -lt 24 ]; do
    [ -n "$samples" ] && samples="$samples,"
    samples="$samples{\"node\":$i,\"job\":1,\"t\":1700000000,\"w\":100}"
    i=$((i + 1))
done
code=$(curl -s -o /dev/null -w '%{http_code}' \
    -X POST "http://$addr3/v1/samples" -H 'Content-Type: application/json' \
    -d "{\"agent\":\"smoke-pin\",\"seq\":1,\"samples\":[$samples]}")
[ "$code" = "202" ] || { echo "overload-smoke: priming batch answered $code, want 202"; exit 1; }
wait_metric "$addr3" powserved_mem_degraded 1 100 || {
    cat "$workdir/run3.log"; exit 1; }

code=$(curl -s -o "$workdir/shed.json" -w '%{http_code}' -D "$workdir/shed.hdr" \
    -X POST "http://$addr3/v1/samples" -H 'Content-Type: application/json' \
    -d '{"agent":"smoke-pin","seq":2,"samples":[{"node":0,"job":1,"t":1700000060,"w":100}]}')
[ "$code" = "429" ] || { echo "overload-smoke: degraded ingest answered $code, want 429"; exit 1; }
grep -q '"code":"over_capacity"' "$workdir/shed.json" || {
    echo "overload-smoke: shed 429 lacks over_capacity code:"; cat "$workdir/shed.json"; exit 1; }
grep -qi '^x-over-capacity: 1' "$workdir/shed.hdr" || {
    echo "overload-smoke: shed 429 lacks X-Over-Capacity"; exit 1; }
grep -qi '^retry-after:' "$workdir/shed.hdr" || {
    echo "overload-smoke: shed 429 lacks Retry-After"; exit 1; }
grep -qi '^x-retry-after-ms:' "$workdir/shed.hdr" || {
    echo "overload-smoke: shed 429 lacks X-Retry-After-Ms"; exit 1; }
curl -s "http://$addr3/readyz" | grep -q '"mem_degraded":true' || {
    echo "overload-smoke: /readyz does not report mem_degraded"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr3/v1/summary")
[ "$code" = "200" ] || { echo "overload-smoke: reads broke while memory-degraded ($code)"; exit 1; }
echo "overload-smoke: 429 over_capacity surface complete, reads still 200, /readyz reports it"
kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""

# ---- no panics anywhere --------------------------------------------
if grep -l "panic:" "$workdir"/run*.log "$workdir"/pri.log "$workdir"/fol.log \
    "$workdir"/chaos.log "$workdir"/load*.log 2>/dev/null; then
    echo "overload-smoke: PANIC detected in logs above"; exit 1
fi

echo "overload-smoke: OK (2x-capacity shed + bounded memory + repl kept up; watermark trip/clear; 429 surface)"
