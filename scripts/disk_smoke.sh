#!/usr/bin/env sh
# Disk-fault smoke test of the degraded-mode and scrubbing machinery:
#
#   powsim dataset → powload (ship.Shipper, -fault) → powserved
#       -fault-disk (vfs.FaultFS) -blocks-dir -data-dir
#
# Three drills against race-built binaries:
#
#   1. ENOSPC window: the injected filesystem runs out of space
#      mid-ingest and recovers after a few seconds. The disk monitor
#      must flip powserved_disk_degraded 1→0, ingest must answer 503
#      storage_degraded (with Retry-After) during the window, and the
#      shipper must ride it out with zero loss and zero double counting.
#   2. EIO: every disk-probe write fails. The server must come up
#      degraded (ingest 503, reads 200, /readyz names the reason).
#   3. Offline bit-flip: one byte of a sealed raw block is corrupted
#      while the server is down. After restart the scrubber must
#      quarantine the block and the same aggregate query must serve
#      bit-exact results from the surviving rollup tiers.
#
# Nothing may panic anywhere.
set -eu

name=disk-smoke
workdir=$(mktemp -d)
server_pid=""
load_pid=""
trap 'kill $server_pid $load_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

. "$(dirname "$0")/lib.sh"
build_bins -race powsim powserved powload
gen_dataset

MAX_SAMPLES=60000

# ---- drill 1: ENOSPC window mid-ingest ------------------------------
echo "disk-smoke: drill 1: ENOSPC window (budget 1.5MB, recovers after 6s)"
mkdir -p "$workdir/data" "$workdir/blocks"
"$workdir/powserved" -addr 127.0.0.1:0 \
    -data-dir "$workdir/data" -blocks-dir "$workdir/blocks" \
    -workers 1 -disk-check-interval 200ms -scrub-interval 1s \
    -fault-disk "seed=42,enospc-after=1500000,enospc-for=6s" \
    >"$workdir/run1.log" 2>&1 &
server_pid=$!
addr=$(wait_addr "$workdir/run1.log")

# The shipper retries forever in -fault mode: it must wait out the
# ENOSPC window without dropping or double-sending anything. -rate
# paces the stream so the window opens mid-ingest.
"$workdir/powload" -addr "http://$addr" -dataset "$workdir/traces/emmy" \
    -batch 256 -concurrency 1 -max-samples $MAX_SAMPLES -fault -rate 15000 \
    >"$workdir/load1.log" 2>&1 &
load_pid=$!

wait_metric "$addr" powserved_disk_degraded 1 300 || {
    cat "$workdir/run1.log"; exit 1; }
echo "disk-smoke: disk degraded (ENOSPC window open)"

# Direct ingest during the window must answer 503 storage_degraded
# with backpressure headers. (Retry a few times: the monitor may clear
# the flag the instant the window closes.)
got503=0
i=0
while [ $i -lt 20 ]; do
    [ "$(metric "$addr" powserved_disk_degraded)" = "1" ] || break
    code=$(curl -s -o "$workdir/degraded.json" -w '%{http_code}' \
        -D "$workdir/degraded.hdr" \
        -X POST "http://$addr/v1/samples" -H 'Content-Type: application/json' \
        -d '{"agent":"smoke-probe","seq":1,"samples":[{"node":0,"job":0,"t":1700000000,"w":100}]}')
    if [ "$code" = "503" ]; then got503=1; break; fi
    sleep 0.1
    i=$((i + 1))
done
[ "$got503" = "1" ] || { echo "disk-smoke: no 503 during the ENOSPC window"; exit 1; }
grep -q '"code":"storage_degraded"' "$workdir/degraded.json" || {
    echo "disk-smoke: degraded 503 lacks storage_degraded code:"; cat "$workdir/degraded.json"; exit 1; }
grep -qi '^retry-after:' "$workdir/degraded.hdr" || {
    echo "disk-smoke: degraded 503 lacks Retry-After"; exit 1; }
grep -qi '^x-storage-degraded: 1' "$workdir/degraded.hdr" || {
    echo "disk-smoke: degraded 503 lacks X-Storage-Degraded"; exit 1; }
# Reads keep serving while ingest is shut.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/summary")
[ "$code" = "200" ] || { echo "disk-smoke: reads broke while degraded ($code)"; exit 1; }
echo "disk-smoke: ingest 503 storage_degraded, reads still 200"

wait_metric "$addr" powserved_disk_degraded 0 300 || {
    cat "$workdir/run1.log"; exit 1; }
echo "disk-smoke: space freed, degraded mode cleared on its own"

wait $load_pid || { echo "disk-smoke: powload failed"; cat "$workdir/load1.log"; exit 1; }
load_pid=""
grep -q "fault mode verified: zero loss, zero double-counting" "$workdir/load1.log" || {
    echo "disk-smoke: load did not verify zero loss"; cat "$workdir/load1.log"; exit 1; }
echo "disk-smoke: shipper rode out the window: zero loss, zero double-counting"

# Seal + compact everything so drill 3 has a raw block and its rollups.
curl -sf -X POST "http://$addr/v1/admin/flush" >/dev/null
ls "$workdir/blocks"/raw-*.blk >/dev/null 2>&1 || {
    echo "disk-smoke: no sealed raw blocks after flush"; exit 1; }
curl -sf -X POST "http://$addr/v1/admin/scrub" >"$workdir/scrub1.json"
blk_corrupt() { sed -n 's/.*"blocks":{[^}]*"corrupt":\([0-9]*\).*/\1/p' "$1"; }
[ "$(blk_corrupt "$workdir/scrub1.json")" = "0" ] || {
    echo "disk-smoke: clean run reported corruption:"; cat "$workdir/scrub1.json"; exit 1; }

# Capture the aggregate truth to compare after the bit flip. step=300
# matches the 5m rollup resolution, so the post-quarantine fallback
# answer must be bit-identical. The degraded flag is stripped: it
# reports healing activity, not data.
node=$(curl -sf "http://$addr/v1/query/nodes" | tr -d '{}[]"' \
    | sed -n 's/.*nodes:\([0-9]*\).*/\1/p')
QUERY="/v1/query/range?node=${node:-0}&from=0&to=4102444800&step=300"
curl -sf "http://$addr$QUERY" | sed 's/"degraded":[a-z]*,*//' >"$workdir/agg-before.json"

kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""

# ---- drill 2: EIO on the health probe -------------------------------
echo "disk-smoke: drill 2: probe EIO (server must boot degraded)"
mkdir -p "$workdir/data2"
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/data2" \
    -disk-check-interval 200ms \
    -fault-disk "seed=7,write-eio=1,path=.disk-probe" \
    >"$workdir/run2.log" 2>&1 &
server_pid=$!
addr2=$(wait_addr "$workdir/run2.log")
wait_metric "$addr2" powserved_disk_degraded 1 100 || {
    cat "$workdir/run2.log"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' \
    -X POST "http://$addr2/v1/samples" -H 'Content-Type: application/json' \
    -d '{"agent":"smoke-probe","seq":1,"samples":[{"node":0,"job":0,"t":1700000000,"w":100}]}')
[ "$code" = "503" ] || { echo "disk-smoke: EIO-degraded ingest answered $code, want 503"; exit 1; }
curl -sf "http://$addr2/readyz" | grep -q '"storage_degraded":true' || {
    echo "disk-smoke: /readyz does not report storage_degraded"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr2/v1/summary")
[ "$code" = "200" ] || { echo "disk-smoke: reads broke under probe EIO ($code)"; exit 1; }
echo "disk-smoke: probe EIO held ingest at 503, reads and /readyz fine"
kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""

# ---- drill 3: offline bit flip + quarantine + tier fallback ---------
echo "disk-smoke: drill 3: flipping one byte of a sealed raw block"
blk=$(ls "$workdir/blocks"/raw-*.blk | head -n1)
off=100
orig=$(od -An -tu1 -j $off -N 1 "$blk" | tr -d ' ')
flip=$((orig ^ 255))
# shellcheck disable=SC2059
printf "$(printf '\\%03o' "$flip")" \
    | dd of="$blk" bs=1 seek=$off conv=notrunc 2>/dev/null
echo "disk-smoke: $(basename "$blk") byte $off: $orig -> $flip"

"$workdir/powserved" -addr 127.0.0.1:0 \
    -data-dir "$workdir/data" -blocks-dir "$workdir/blocks" \
    -workers 1 -disk-check-interval 200ms -scrub-interval 1s \
    >"$workdir/run3.log" 2>&1 &
server_pid=$!
addr3=$(wait_addr "$workdir/run3.log")

curl -sf -X POST "http://$addr3/v1/admin/scrub" >"$workdir/scrub3.json"
blk_corrupt() { sed -n 's/.*"blocks":{[^}]*"corrupt":\([0-9]*\).*/\1/p' "$1"; }
[ "$(blk_corrupt "$workdir/scrub3.json")" -ge 1 ] || {
    echo "disk-smoke: scrub missed the flipped block:"; cat "$workdir/scrub3.json"; exit 1; }
ls "$workdir/blocks"/*.quarantine >/dev/null 2>&1 || {
    echo "disk-smoke: no .quarantine file after scrub"; exit 1; }
qfiles=$(metric "$addr3" powserved_quarantine_files)
[ "${qfiles:-0}" -ge 1 ] || { echo "disk-smoke: powserved_quarantine_files=$qfiles"; exit 1; }
corrupt=$(metric "$addr3" powserved_scrub_corrupt_total)
[ "${corrupt:-0}" -ge 1 ] || { echo "disk-smoke: powserved_scrub_corrupt_total=$corrupt"; exit 1; }
echo "disk-smoke: block quarantined (files=$qfiles, corrupt=$corrupt)"

curl -sf "http://$addr3$QUERY" | sed 's/"degraded":[a-z]*,*//' >"$workdir/agg-after.json"
cmp "$workdir/agg-before.json" "$workdir/agg-after.json" || {
    echo "disk-smoke: aggregates diverged after quarantine (tier fallback broken)"; exit 1; }
echo "disk-smoke: aggregate query bit-identical from surviving rollup tiers"

kill -TERM $server_pid && wait $server_pid 2>/dev/null || true
server_pid=""

# ---- no panics anywhere --------------------------------------------
if grep -l "panic:" "$workdir"/run*.log "$workdir"/load*.log 2>/dev/null; then
    echo "disk-smoke: PANIC detected in logs above"; exit 1
fi

echo "disk-smoke: OK (ENOSPC window, probe EIO, bit-flip quarantine + exact fallback)"
