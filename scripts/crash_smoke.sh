#!/usr/bin/env sh
# Crash smoke test of the durable ingest path:
#
#   powsim dataset → powload (ship.Shipper, -fault) → powserved -data-dir
#
# The server is SIGKILLed mid-ingest, its newest WAL segment is then
# corrupted with a torn partial frame, and a fresh instance recovers on
# the SAME address while the shipper keeps retrying through the outage.
# A control run of the identical pipeline never crashes. The recovered
# run must end byte-identical to the control: /v1/summary and every
# /v1/jobs/{id}/power body are compared with cmp, not a tolerance.
# Binaries are built -race.
set -eu

name=crash-smoke
workdir=$(mktemp -d)
server_pid=""
load_pid=""
trap 'kill $server_pid $load_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

. "$(dirname "$0")/lib.sh"
build_bins -race powsim powserved powload
gen_dataset

MAX_SAMPLES=60000
KILL_AT=$((MAX_SAMPLES / 3))
# One pusher and one ingest worker keep apply order identical across
# runs (WAL order = sequence order), so recovery is byte-reproducible.
SRV_FLAGS="-workers 1 -snapshot-interval 1s -snapshot-every 64"

# ---- run 1: control (durable, never crashes) ------------------------
echo "crash-smoke: control run (durable, no crash)"
mkdir -p "$workdir/ctl-data"
# shellcheck disable=SC2086
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/ctl-data" $SRV_FLAGS \
    >"$workdir/ctl.log" 2>&1 &
server_pid=$!
ctl_addr=$(wait_addr "$workdir/ctl.log")
"$workdir/powload" -addr "http://$ctl_addr" -dataset "$workdir/traces/emmy" \
    -batch 256 -concurrency 1 -max-samples $MAX_SAMPLES -fault >"$workdir/ctl-load.log"
grep -q "fault mode verified" "$workdir/ctl-load.log" || {
    echo "crash-smoke: control load did not verify"; exit 1; }
dump_state "http://$ctl_addr" "$workdir/control"
kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""

# ---- run 2: crash + torn write + recovery ---------------------------
echo "crash-smoke: crash run"
mkdir -p "$workdir/crash-data"
# shellcheck disable=SC2086
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/crash-data" $SRV_FLAGS \
    >"$workdir/crash1.log" 2>&1 &
server_pid=$!
crash_addr=$(wait_addr "$workdir/crash1.log")

# The shipper retries forever in -fault mode: it must ride through the
# kill, the outage, and the restart without losing or duplicating data.
# -rate paces the stream so the kill lands mid-ingest deterministically.
"$workdir/powload" -addr "http://$crash_addr" -dataset "$workdir/traces/emmy" \
    -batch 256 -concurrency 1 -max-samples $MAX_SAMPLES -fault -rate 15000 \
    >"$workdir/crash-load.log" 2>&1 &
load_pid=$!

i=0
while :; do
    n=$(curl -sf "http://$crash_addr/v1/summary" 2>/dev/null \
        | sed -n 's/.*"samples":\([0-9]*\).*/\1/p')
    [ "${n:-0}" -ge $KILL_AT ] && break
    kill -0 $load_pid 2>/dev/null || {
        echo "crash-smoke: load finished before the kill threshold — nothing crashed"; exit 1; }
    i=$((i + 1))
    [ $i -gt 600 ] && { echo "crash-smoke: never reached $KILL_AT samples"; exit 1; }
    sleep 0.05
done
echo "crash-smoke: SIGKILL at $n/$MAX_SAMPLES samples"
kill -9 $server_pid
wait $server_pid 2>/dev/null || true
server_pid=""

# Torn-write injector: append a partial frame (plausible length prefix,
# truncated body) to the newest segment — what a power cut mid-write
# leaves behind. Only appends: acked bytes are never rewritten.
seg=$(ls "$workdir/crash-data"/wal-*.seg | tail -n1)
printf '\100\000\000\000\336\255\276\357\001torn' >>"$seg"
echo "crash-smoke: appended torn frame to $(basename "$seg")"

# Restart on the SAME address: recovery must finish before the listener
# binds, so the first successful connection sees recovered analytics.
# shellcheck disable=SC2086
"$workdir/powserved" -addr "$crash_addr" -data-dir "$workdir/crash-data" $SRV_FLAGS \
    >"$workdir/crash2.log" 2>&1 &
server_pid=$!
wait_addr "$workdir/crash2.log" >/dev/null
grep -q "^powserved: recovered" "$workdir/crash2.log" || {
    echo "crash-smoke: restart did not report recovery"; cat "$workdir/crash2.log"; exit 1; }
sed -n 's/^powserved: recovered.*/crash-smoke: &/p' "$workdir/crash2.log"

code=$(curl -s -o /dev/null -w '%{http_code}' "http://$crash_addr/readyz")
[ "$code" = "200" ] || { echo "crash-smoke: readyz=$code after recovery"; exit 1; }

# The load generator's own verification: zero loss, zero double count.
wait $load_pid || { echo "crash-smoke: powload failed"; cat "$workdir/crash-load.log"; exit 1; }
load_pid=""
grep -q "fault mode verified: zero loss, zero double-counting" "$workdir/crash-load.log" || {
    echo "crash-smoke: load did not verify after the crash"; cat "$workdir/crash-load.log"; exit 1; }

dump_state "http://$crash_addr" "$workdir/crashed"

echo "crash-smoke: checking wal/recovery counters on /metrics"
curl -sf "http://$crash_addr/metrics" >"$workdir/metrics.txt"
for metric in powserved_wal_appends_total powserved_wal_fsyncs_total \
    powserved_snapshots_total \
    powserved_recovery_seconds powserved_recovery_snapshot_found \
    powserved_recovery_snapshot_lsn powserved_recovery_records_replayed \
    powserved_recovery_samples_replayed powserved_recovery_records_skipped \
    powserved_recovery_tombstoned powserved_recovery_truncated_bytes \
    powserved_recovery_snapshots_skipped powserved_recovery_stale_lock; do
    grep -q "^$metric " "$workdir/metrics.txt" || {
        echo "crash-smoke: /metrics missing $metric"; exit 1; }
done
trunc=$(sed -n 's/^powserved_recovery_truncated_bytes \([0-9]*\)$/\1/p' "$workdir/metrics.txt")
[ "${trunc:-0}" -gt 0 ] || { echo "crash-smoke: torn frame was not truncated"; exit 1; }
# The recovered instance's WAL fsync latency histogram must be live:
# post-restart ingest went through the durable path, so the histogram
# count is non-zero and the bucket series are present.
fsyncs=$(sed -n 's/^powserved_wal_fsync_seconds_count \([0-9]*\)$/\1/p' "$workdir/metrics.txt")
[ "${fsyncs:-0}" -gt 0 ] || {
    echo "crash-smoke: WAL fsync histogram empty after recovery"; exit 1; }
grep -q '^powserved_wal_fsync_seconds_bucket{le="+Inf"}' "$workdir/metrics.txt" || {
    echo "crash-smoke: WAL fsync histogram lacks +Inf bucket"; exit 1; }
grep -q '^powserved_ingest_e2e_seconds_bucket{le="+Inf"}' "$workdir/metrics.txt" || {
    echo "crash-smoke: ingest e2e histogram missing"; exit 1; }
ls "$workdir/crash-data"/snap-*.snap >/dev/null 2>&1 || {
    echo "crash-smoke: no snapshot was written"; exit 1; }

# ---- compare: recovered run must equal the control byte-for-byte ----
echo "crash-smoke: comparing recovered analytics against the control"
cmp "$workdir/control/summary.json" "$workdir/crashed/summary.json" || {
    echo "crash-smoke: /v1/summary diverged"; exit 1; }
cmp "$workdir/control/ids" "$workdir/crashed/ids" || {
    echo "crash-smoke: job sets differ"; exit 1; }
njobs=0
while read -r id; do
    [ -n "$id" ] || continue
    njobs=$((njobs + 1))
    cmp "$workdir/control/job-$id.json" "$workdir/crashed/job-$id.json" || {
        echo "crash-smoke: job $id diverged from the control run"; exit 1; }
done <"$workdir/control/ids"
echo "crash-smoke: summary + $njobs jobs byte-identical to the never-crashed control"

echo "crash-smoke: graceful shutdown"
kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""

echo "crash-smoke: OK (SIGKILL + torn write, recovered byte-identical)"
