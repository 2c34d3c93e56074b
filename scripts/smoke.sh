#!/usr/bin/env sh
# Smoke test of the online serving path: powsim dataset → powpredict
# model export → powserved on a random port → powload replay.
# Fails on any dropped batch, on an ingest shortfall, or if the served
# prediction diverges from the offline model.
#
# A second pass exercises the block store: replay into a server with
# -blocks-dir, seal windows via POST /v1/admin/flush, SIGKILL, restart,
# and require (a) no re-sealed blocks, (b) the live analytics report
# (powanalyze -source) byte-identical before and after the restart AND
# to an in-process replay control (powanalyze -live-control).
set -eu

workdir=$(mktemp -d)
trap 'kill $server_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

echo "smoke: building binaries"
for b in powsim powpredict powserved powload powanalyze; do
    go build -o "$workdir/$b" "./cmd/$b"
done

# ~640 jobs, ~136k samples; deterministic.
echo "smoke: generating dataset (emmy, 2% scale)"
"$workdir/powsim" -system emmy -scale 0.02 -seed 42 -out "$workdir/traces" >/dev/null

# wait_addr <logfile>: echo the bound address once powserved reports it.
wait_addr() {
    i=0
    while [ $i -lt 150 ]; do
        a=$(sed -n 's/^powserved: listening on \([^ ]*\).*/\1/p' "$1" | head -n1)
        [ -n "$a" ] && { echo "$a"; return 0; }
        sleep 0.1
        i=$((i + 1))
    done
    echo "smoke: powserved behind $1 did not report its address" >&2
    cat "$1" >&2
    return 1
}

echo "smoke: exporting BDT model"
"$workdir/powpredict" -save-model "$workdir/model.json" "$workdir/traces/emmy" >/dev/null

echo "smoke: starting powserved on a random port"
"$workdir/powserved" -addr 127.0.0.1:0 -model "$workdir/model.json" >"$workdir/served.log" 2>&1 &
server_pid=$!

base="http://$(wait_addr "$workdir/served.log")"
echo "smoke: server at $base"

echo "smoke: replaying telemetry with powload"
"$workdir/powload" -addr "$base" -dataset "$workdir/traces/emmy" -batch 512 -concurrency 4

echo "smoke: checking online/offline prediction parity"
online=$(curl -sf -X POST "$base/v1/predict" \
    -d '{"user":"u001","nodes":8,"wall_hours":12}')
offline=$("$workdir/powpredict" -what-if "u001,8,12" "$workdir/traces/emmy" \
    | sed -n 's/.*predicted \([0-9.]*\) W per node.*/\1/p')
echo "smoke: online=$online offline=${offline} W"
case "$online" in
    *"\"predicted_w\""*) : ;;
    *) echo "smoke: predict endpoint returned no prediction"; exit 1 ;;
esac
# The what-if output rounds to 0.1 W; check the served value matches it.
served_w=$(printf '%s' "$online" | sed -n 's/.*"predicted_w":\([0-9.]*\).*/\1/p')
rounded=$(printf '%.1f' "$served_w")
if [ "$rounded" != "$offline" ]; then
    echo "smoke: served prediction $served_w !~ offline $offline"
    exit 1
fi

echo "smoke: metrics endpoint"
curl -sf "$base/metrics" | grep -q "powserved_samples_ingested_total" || {
    echo "smoke: /metrics missing counters"; exit 1; }
# Shipper traffic is in the canonical wire form: every batch above must
# have taken the single-pass decoder, none the encoding/json fallback.
curl -sf "$base/metrics" | grep -qx "powserved_ingest_decode_fallback_total 0" || {
    echo "smoke: powload batches fell back to encoding/json"; exit 1; }
# Each pusher ships whole jobs in time order, so no sample missed its
# job's anomaly trend.
curl -sf "$base/metrics" | grep -qx "powserved_job_late_samples_total 0" || {
    echo "smoke: powload sent samples behind their jobs' trends"; exit 1; }

echo "smoke: graceful shutdown"
kill -TERM $server_pid
wait $server_pid
server_pid=""

# ---- block-store pass: flush → SIGKILL → restart → parity -----------

# Single worker + single pusher keep the JobStats streams byte-
# reproducible; the ring must match powanalyze -live-ring (16384), and
# -flush-interval 0 disables the wall-clock loop (the replayed data is
# historical — only the explicit admin flush should seal it).
BLK_FLAGS="-workers 1 -ring 16384 -blocks-dir $workdir/blocks -flush-interval 0 -data-dir $workdir/blkdata"
mkdir -p "$workdir/blkdata"

echo "smoke: block pass — replaying into powserved -blocks-dir"
# shellcheck disable=SC2086
"$workdir/powserved" -addr 127.0.0.1:0 $BLK_FLAGS >"$workdir/blk1.log" 2>&1 &
server_pid=$!
blk_base="http://$(wait_addr "$workdir/blk1.log")"
"$workdir/powload" -addr "$blk_base" -dataset "$workdir/traces/emmy" -batch 512 -concurrency 1 >/dev/null

echo "smoke: sealing windows via /v1/admin/flush"
flush1=$(curl -sf -X POST "$blk_base/v1/admin/flush")
case "$flush1" in
    *'"sealed":0'*) echo "smoke: flush sealed nothing: $flush1"; exit 1 ;;
esac
raw_before=$(ls "$workdir/blocks"/raw-*.blk | wc -l)
[ "$raw_before" -gt 0 ] || { echo "smoke: no raw block files"; exit 1; }
curl -sf "$blk_base/metrics" | grep -q 'powserved_block_files{tier="raw"}' || {
    echo "smoke: /metrics missing block gauges"; exit 1; }

echo "smoke: live report A (server) vs in-process replay control"
"$workdir/powanalyze" -source "$blk_base" >"$workdir/live_a.txt"
"$workdir/powanalyze" -live-control "$workdir/traces/emmy" >"$workdir/live_ctl.txt"
cmp "$workdir/live_a.txt" "$workdir/live_ctl.txt" || {
    echo "smoke: live report differs from in-process control"; exit 1; }

echo "smoke: SIGKILL + restart on the same dirs"
kill -9 $server_pid
wait $server_pid 2>/dev/null || true
# shellcheck disable=SC2086
"$workdir/powserved" -addr 127.0.0.1:0 $BLK_FLAGS >"$workdir/blk2.log" 2>&1 &
server_pid=$!
blk_base="http://$(wait_addr "$workdir/blk2.log")"

echo "smoke: re-flush must seal nothing (frontier from block files)"
flush2=$(curl -sf -X POST "$blk_base/v1/admin/flush")
case "$flush2" in
    *'"sealed":0'*) : ;;
    *) echo "smoke: post-restart flush re-sealed windows: $flush2"; exit 1 ;;
esac
raw_after=$(ls "$workdir/blocks"/raw-*.blk | wc -l)
[ "$raw_after" -eq "$raw_before" ] || {
    echo "smoke: raw block count changed across restart: $raw_before → $raw_after"; exit 1; }

echo "smoke: live report after restart must be byte-identical"
"$workdir/powanalyze" -source "$blk_base" >"$workdir/live_b.txt"
cmp "$workdir/live_a.txt" "$workdir/live_b.txt" || {
    echo "smoke: restarted live report differs (head+block merge broken)"; exit 1; }

kill -TERM $server_pid
wait $server_pid
server_pid=""

echo "smoke: OK"
