#!/usr/bin/env sh
# Failover smoke test of the highly-available ingest path:
#
#   powsim dataset → powload (-failover) → powchaos (≥10% faults)
#                                             → powserved primary (-repl-ack sync)
#                                             ⇣ WAL streaming replication
#                                          powserved follower (warm standby)
#
# Mid-ingest the PRIMARY is SIGKILLed and the follower is promoted with
# POST /v1/promote; the shipper's replication-aware failover rotates
# onto the standby and the run must finish with zero loss and zero
# double-counting. A control run of the identical pipeline (no chaos,
# no crash) sets the reference: /v1/summary and every
# /v1/jobs/{id}/power body on the promoted standby are compared with
# cmp, not a tolerance. Finally the deposed primary is restarted and
# must fence itself (409, code stale_epoch) when shown the newer epoch.
# Binaries are built -race.
set -eu

name=failover-smoke
workdir=$(mktemp -d)
primary_pid=""
follower_pid=""
chaos_pid=""
load_pid=""
trap 'kill $primary_pid $follower_pid $chaos_pid $load_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

. "$(dirname "$0")/lib.sh"
build_bins -race powsim powserved powchaos powload
gen_dataset

MAX_SAMPLES=60000
KILL_AT=$((MAX_SAMPLES / 3))
# One pusher and one ingest worker keep apply order identical across
# runs (WAL order = sequence order), so state is byte-reproducible.
# Debug-level structured logs carry the shipper-minted trace IDs, which
# the trace-propagation checks below grep across both nodes.
SRV_FLAGS="-workers 1 -snapshot-interval 1s -snapshot-every 64 -log-level debug"

# ---- run 1: control (single durable server, no chaos, no crash) -----
echo "failover-smoke: control run"
mkdir -p "$workdir/ctl-data"
# shellcheck disable=SC2086
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/ctl-data" $SRV_FLAGS \
    >"$workdir/ctl.log" 2>&1 &
primary_pid=$!
ctl_addr=$(wait_addr "$workdir/ctl.log")
"$workdir/powload" -addr "http://$ctl_addr" -dataset "$workdir/traces/emmy" \
    -batch 256 -concurrency 1 -max-samples $MAX_SAMPLES -fault >"$workdir/ctl-load.log"
grep -q "fault mode verified" "$workdir/ctl-load.log" || {
    echo "failover-smoke: control load did not verify"; exit 1; }
dump_state "http://$ctl_addr" "$workdir/control"
kill -TERM $primary_pid && wait $primary_pid 2>/dev/null || true
primary_pid=""

# ---- run 2: replicated pair + chaos + SIGKILL + promotion -----------
echo "failover-smoke: starting primary (semi-sync acks)"
mkdir -p "$workdir/pri-data" "$workdir/fol-data"
# shellcheck disable=SC2086
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/pri-data" $SRV_FLAGS \
    -repl-ack sync >"$workdir/pri.log" 2>&1 &
primary_pid=$!
pri_addr=$(wait_addr "$workdir/pri.log")

echo "failover-smoke: starting follower (warm standby)"
# shellcheck disable=SC2086
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/fol-data" $SRV_FLAGS \
    -role follower -follow "http://$pri_addr" -follower-id standby \
    >"$workdir/fol.log" 2>&1 &
follower_pid=$!
fol_addr=$(wait_addr "$workdir/fol.log")

# ≥10% total injected fault rate on the ingest path to the primary.
echo "failover-smoke: starting chaos proxy (13% faults) in front of the primary"
"$workdir/powchaos" -listen 127.0.0.1:0 -target "http://$pri_addr" \
    -drop 0.04 -err5xx 0.04 -reset 0.03 -truncate 0.02 -path /v1/samples -seed 7 \
    >"$workdir/chaos.log" 2>&1 &
chaos_pid=$!
chaos_addr=$(wait_addr "$workdir/chaos.log")

# The shipper prefers the chaos→primary path and fails over to the
# standby; -rate paces the stream so the kill lands mid-ingest.
"$workdir/powload" -addr "http://$chaos_addr" -failover "http://$fol_addr" \
    -dataset "$workdir/traces/emmy" \
    -batch 256 -concurrency 1 -max-samples $MAX_SAMPLES -fault -rate 15000 \
    >"$workdir/load.log" 2>&1 &
load_pid=$!

i=0
while :; do
    n=$(curl -sf "http://$pri_addr/v1/summary" 2>/dev/null \
        | sed -n 's/.*"samples":\([0-9]*\).*/\1/p')
    [ "${n:-0}" -ge $KILL_AT ] && break
    kill -0 $load_pid 2>/dev/null || {
        echo "failover-smoke: load finished before the kill threshold — nothing failed over"; exit 1; }
    i=$((i + 1))
    [ $i -gt 600 ] && { echo "failover-smoke: never reached $KILL_AT samples"; exit 1; }
    sleep 0.05
done
echo "failover-smoke: SIGKILL primary at $n/$MAX_SAMPLES samples"
kill -9 $primary_pid
wait $primary_pid 2>/dev/null || true
primary_pid=""

echo "failover-smoke: promoting the follower"
promote=$(curl -sf -X POST "http://$fol_addr/v1/promote")
echo "failover-smoke: promote answered $promote"
echo "$promote" | grep -q '"role":"primary"' || {
    echo "failover-smoke: promotion did not yield a primary"; exit 1; }
epoch=$(echo "$promote" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p')
[ "${epoch:-0}" -ge 2 ] || {
    echo "failover-smoke: promoted epoch $epoch, want >= 2"; exit 1; }

# The load generator's own verification: zero loss, zero double count,
# now satisfied by the promoted standby.
wait $load_pid || { echo "failover-smoke: powload failed"; cat "$workdir/load.log"; exit 1; }
load_pid=""
grep -q "fault mode verified: zero loss, zero double-counting" "$workdir/load.log" || {
    echo "failover-smoke: load did not verify across the failover"; cat "$workdir/load.log"; exit 1; }
grep -q "failovers [1-9]" "$workdir/load.log" || {
    echo "failover-smoke: shipper never failed over"; cat "$workdir/load.log"; exit 1; }

echo "failover-smoke: checking replication counters on the promoted standby"
curl -sf "http://$fol_addr/metrics" >"$workdir/metrics.txt"
for metric in powserved_repl_epoch powserved_repl_lag_records \
    powserved_repl_promotions_total powserved_repl_applied_records_total; do
    grep -q "$metric" "$workdir/metrics.txt" || {
        echo "failover-smoke: /metrics missing $metric"; exit 1; }
done
mepoch=$(sed -n 's/^powserved_repl_epoch \([0-9]*\)$/\1/p' "$workdir/metrics.txt")
[ "${mepoch:-0}" -ge 2 ] || {
    echo "failover-smoke: powserved_repl_epoch=$mepoch, want >= 2"; exit 1; }
grep -q '^powserved_repl_role 1$' "$workdir/metrics.txt" || {
    echo "failover-smoke: promoted standby does not report the primary role"; exit 1; }
# Replication lag must have drained to zero: the promoted node holds
# everything the shipper saw acknowledged, nothing is still in flight.
grep -q '^powserved_repl_lag_records 0$' "$workdir/metrics.txt" || {
    echo "failover-smoke: replication lag did not return to 0"; exit 1; }
# No request on the promoted node breached the slow-request threshold.
if grep -q "slow request" "$workdir/fol.log"; then
    echo "failover-smoke: promoted node logged slow requests:"
    grep "slow request" "$workdir/fol.log"
    exit 1
fi

# ---- trace propagation: one ID across both nodes and the ring -------
# The shipper mints one X-Trace-Id per batch; it must appear in the
# primary's ingest log, ride the WAL body over the replication stream
# into the follower's apply log, and land in the follower's trace ring.
echo "failover-smoke: checking trace-id propagation primary -> follower"
trace_id=$(sed -n 's/.*msg="batch ingested".*trace_id=\([0-9a-f]\{16\}\).*/\1/p' \
    "$workdir/pri.log" | head -n1)
[ -n "$trace_id" ] || {
    echo "failover-smoke: no trace_id in the primary's ingest log"; exit 1; }
grep -q "trace_id=$trace_id" "$workdir/fol.log" || {
    echo "failover-smoke: trace $trace_id never reached the follower's apply log"; exit 1; }
curl -sf "http://$fol_addr/debug/traces/recent?trace=$trace_id" >"$workdir/trace.json"
grep -q "\"trace\":\"$trace_id\"" "$workdir/trace.json" || {
    echo "failover-smoke: trace $trace_id missing from the follower's trace ring"
    cat "$workdir/trace.json"; exit 1; }
grep -q '"stage":"repl_apply"' "$workdir/trace.json" || {
    echo "failover-smoke: follower's ring lacks the repl_apply stage for $trace_id"; exit 1; }
echo "failover-smoke: trace $trace_id followed ingest -> WAL -> stream -> follower apply"

# ---- compare: promoted standby must equal the control byte-for-byte -
echo "failover-smoke: comparing promoted-standby analytics against the control"
dump_state "http://$fol_addr" "$workdir/failover"
cmp "$workdir/control/summary.json" "$workdir/failover/summary.json" || {
    echo "failover-smoke: /v1/summary diverged"; exit 1; }
cmp "$workdir/control/ids" "$workdir/failover/ids" || {
    echo "failover-smoke: job sets differ"; exit 1; }
njobs=0
while read -r id; do
    [ -n "$id" ] || continue
    njobs=$((njobs + 1))
    cmp "$workdir/control/job-$id.json" "$workdir/failover/job-$id.json" || {
        echo "failover-smoke: job $id diverged from the control run"; exit 1; }
done <"$workdir/control/ids"
echo "failover-smoke: summary + $njobs jobs byte-identical to the control"

# ---- the deposed primary must fence itself --------------------------
echo "failover-smoke: restarting the deposed primary"
# shellcheck disable=SC2086
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/pri-data" $SRV_FLAGS \
    >"$workdir/pri2.log" 2>&1 &
primary_pid=$!
old_addr=$(wait_addr "$workdir/pri2.log")

# Any peer that has seen the new epoch gossips it (shippers do this on
# every delivery); one such contact must fence the stale primary with
# the distinct stale_epoch error, and the refusal must be sticky.
fence=$(curl -s -o "$workdir/fence.json" -w '%{http_code}' \
    -X POST -H "Content-Type: application/json" -H "X-Repl-Epoch: $epoch" \
    -d '{"agent_id":"probe","seq":1,"samples":[]}' "http://$old_addr/v1/samples")
[ "$fence" = "409" ] || { echo "failover-smoke: stale primary answered $fence, want 409"; exit 1; }
grep -q '"code":"stale_epoch"' "$workdir/fence.json" || {
    echo "failover-smoke: fenced refusal lacks code stale_epoch"; cat "$workdir/fence.json"; exit 1; }
sticky=$(curl -s -o /dev/null -w '%{http_code}' \
    -X POST -H "Content-Type: application/json" \
    -d '{"agent_id":"probe","seq":2,"samples":[]}' "http://$old_addr/v1/samples")
[ "$sticky" = "409" ] || {
    echo "failover-smoke: fencing is not sticky (second ingest answered $sticky)"; exit 1; }
echo "failover-smoke: deposed primary fenced (409 stale_epoch, sticky)"

echo "failover-smoke: graceful shutdown"
kill -TERM $primary_pid $follower_pid $chaos_pid 2>/dev/null || true
wait $primary_pid 2>/dev/null || true
wait $follower_pid 2>/dev/null || true
wait $chaos_pid 2>/dev/null || true
primary_pid=""; follower_pid=""; chaos_pid=""

echo "failover-smoke: OK (SIGKILL primary + promotion, zero loss, fencing verified)"
