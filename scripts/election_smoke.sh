#!/usr/bin/env sh
# Jepsen-lite election drill for self-driving failover:
#
#   powload ──→ PA ──→ powserved a (primary, semi-sync)
#          └──→ PB ──→ powserved b (standby)
#                      powserved w (witness, vote-only)
#
#   election links (each its own powchaos proxy, cuttable per direction):
#     a → b : PAB→PB      b → a : PBA→PA
#     a → w : PAW→w       b → w : PBW→w
#
# Every member advertises its ingress proxy, so cutting a node's
# proxies is a real network partition: heartbeats, votes, replication,
# and ingest all die together. Six rounds of faults are driven against
# the live pipeline — SIGKILL of the current primary, a symmetric
# split, an asymmetric (egress-only) split, SIGKILL of the standby, a
# flapping link, and a second symmetric split — with the group left to
# recover on its own each time: no operator promotion, no operator
# rejoin. Killed nodes are restarted with their ORIGINAL flags, so a
# deposed ex-primary boots thinking it still leads and must discover,
# fence, truncate its diverged WAL suffix, and rejoin by itself.
#
# Assertions:
#   - a new leader holds the lease within a bounded window each round;
#   - at every settled point at most ONE data node holds the lease
#     (the lease gate keeps an unfenced-but-leaseless ex-primary from
#     acking, so this is the no-two-primaries-ack-in-one-epoch check);
#   - powload's own verification: zero acked-batch loss and zero
#     double-counting across all six rounds (semi-sync acks);
#   - deposed primaries rejoin automatically (rejoin counters > 0) and
#     the diverged-records metric is exported;
#   - final analytics are byte-identical (cmp) to a fault-free control
#     run of the same dataset.
#
# Binaries are built -race.
set -eu

name=election-smoke
workdir=$(mktemp -d)
a_pid=""; b_pid=""; w_pid=""; load_pid=""; ctl_pid=""
pa_pid=""; pb_pid=""; pab_pid=""; paw_pid=""; pba_pid=""; pbw_pid=""
# ELECTION_SMOKE_KEEP=1 preserves the workdir (logs, data dirs) for debugging.
cleanup() {
    kill $a_pid $b_pid $w_pid $load_pid $ctl_pid $pa_pid $pb_pid $pab_pid $paw_pid $pba_pid $pbw_pid 2>/dev/null || true
    if [ -n "${ELECTION_SMOKE_KEEP:-}" ]; then
        echo "election-smoke: workdir kept at $workdir"
    else
        rm -rf "$workdir"
    fi
}
trap cleanup EXIT INT TERM

. "$(dirname "$0")/lib.sh"
build_bins -race powsim powserved powchaos powload
gen_dataset

# The advertise/peer graph is circular (a node must know its proxy URL
# before either exists), so the drill uses fixed ports.
BASE=${ELECTION_SMOKE_BASE_PORT:-19480}
A_ADDR=127.0.0.1:$((BASE + 0)); B_ADDR=127.0.0.1:$((BASE + 1)); W_ADDR=127.0.0.1:$((BASE + 2))
PA=127.0.0.1:$((BASE + 3));     PB=127.0.0.1:$((BASE + 4))
PAB=127.0.0.1:$((BASE + 5));    PAW=127.0.0.1:$((BASE + 6))
PBA=127.0.0.1:$((BASE + 7));    PBW=127.0.0.1:$((BASE + 8))

MAX_SAMPLES=60000
# One pusher and one ingest worker keep apply order identical across
# runs, so the final state is byte-comparable with the control.
SRV_FLAGS="-workers 1 -snapshot-interval 1s -snapshot-every 64"
ELECT_FLAGS="-heartbeat-interval 100ms"

# readyz <node>: the node's /readyz body (direct, out-of-band of the
# proxied data path), empty on connection failure.
readyz() {
    case "$1" in
    a) curl -s --max-time 2 "http://$A_ADDR/readyz" 2>/dev/null || true ;;
    b) curl -s --max-time 2 "http://$B_ADDR/readyz" 2>/dev/null || true ;;
    esac
}

# wait_leader <secs>: poll until exactly one data node holds the lease;
# echo its name. The bound is the recovery-time assertion.
wait_leader() {
    wl_i=0
    while [ $wl_i -lt $(($1 * 10)) ]; do
        for wl_n in a b; do
            case "$(readyz $wl_n)" in *'"has_lease":true'*) echo "$wl_n"; return 0 ;; esac
        done
        sleep 0.1
        wl_i=$((wl_i + 1))
    done
    echo "election-smoke: no node acquired the lease within $1s" >&2
    return 1
}

# wait_takeover <node> <secs>: poll until that SPECIFIC node holds the
# lease. The generic wait_leader is wrong right after a fault: a
# just-partitioned primary keeps its lease until the TTL runs out, so
# for a bounded window "some node has the lease" is trivially true of
# the node the fault was aimed at.
wait_takeover() {
    wt_i=0
    while [ $wt_i -lt $(($2 * 10)) ]; do
        case "$(readyz $1)" in *'"has_lease":true'*) return 0 ;; esac
        sleep 0.1
        wt_i=$((wt_i + 1))
    done
    echo "election-smoke: node $1 did not take over within ${2}s" >&2
    readyz $1 >&2 || true
    return 1
}

# assert_single_lease: at most one data node may hold the lease.
assert_single_lease() {
    sl_count=0
    case "$(readyz a)" in *'"has_lease":true'*) sl_count=$((sl_count + 1)) ;; esac
    case "$(readyz b)" in *'"has_lease":true'*) sl_count=$((sl_count + 1)) ;; esac
    [ $sl_count -le 1 ] || { echo "election-smoke: SPLIT BRAIN: both data nodes hold the lease"; exit 1; }
}

# wait_follower <node> <secs>: poll until the node reports the follower
# role — i.e. a deposed primary finished its automatic rejoin.
wait_follower() {
    wf_i=0
    while [ $wf_i -lt $(($2 * 10)) ]; do
        case "$(readyz $1)" in *'"role":"follower"'*) return 0 ;; esac
        sleep 0.1
        wf_i=$((wf_i + 1))
    done
    echo "election-smoke: node $1 never rejoined as a follower within ${2}s" >&2
    readyz $1 >&2 || true
    return 1
}

# cut <mode> <ctl-addr>... / heal <ctl-addr>...: flip proxy partitions.
cut() {
    mode=$1; shift
    for ctl in "$@"; do
        curl -sf -X POST "http://$ctl/chaosctl/partition?mode=$mode" >/dev/null
    done
}
heal() { cut "" "$@"; }

proxies_of() { # ingress + egress control addresses for a data node
    case "$1" in
    a) echo "$PA $PAB $PAW" ;;
    b) echo "$PB $PBA $PBW" ;;
    esac
}

require_load_alive() {
    kill -0 $load_pid 2>/dev/null || {
        echo "election-smoke: load finished before round $1 — faults must land mid-ingest"
        exit 1
    }
}

# ---- control: same dataset, one durable server, zero faults ---------
echo "election-smoke: control run"
mkdir -p "$workdir/ctl-data"
# shellcheck disable=SC2086
"$workdir/powserved" -addr 127.0.0.1:0 -data-dir "$workdir/ctl-data" $SRV_FLAGS \
    >"$workdir/ctl.log" 2>&1 &
ctl_pid=$!
ctl_addr=$(wait_addr "$workdir/ctl.log")
"$workdir/powload" -addr "http://$ctl_addr" -dataset "$workdir/traces/emmy" \
    -batch 256 -concurrency 1 -max-samples $MAX_SAMPLES -fault >"$workdir/ctl-load.log"
grep -q "fault mode verified" "$workdir/ctl-load.log" || {
    echo "election-smoke: control load did not verify"; exit 1; }
dump_state "http://$ctl_addr" "$workdir/control"
kill -TERM $ctl_pid && wait $ctl_pid 2>/dev/null || true
ctl_pid=""

# ---- the group: witness, link proxies, two data nodes ---------------
mkdir -p "$workdir/a-data" "$workdir/b-data" "$workdir/w-data"

start_w() {
    "$workdir/powserved" -addr "$W_ADDR" -role witness -data-dir "$workdir/w-data" \
        -elect-id w -advertise "http://$W_ADDR" $ELECT_FLAGS \
        -peer "a=http://$PA" -peer "b=http://$PB" \
        >>"$workdir/w.log" 2>&1 &
    w_pid=$!
}
start_proxy() { # <pid-var> <listen> <target>
    "$workdir/powchaos" -listen "$2" -target "http://$3" >>"$workdir/proxy-$2.log" 2>&1 &
    eval "$1=\$!"
}
start_a() {
    # shellcheck disable=SC2086
    "$workdir/powserved" -addr "$A_ADDR" -data-dir "$workdir/a-data" $SRV_FLAGS \
        -repl-ack sync -follower-id a \
        -elect-id a -advertise "http://$PA" $ELECT_FLAGS \
        -peer "b=http://$PAB" -peer "w=http://$PAW,witness" \
        >>"$workdir/a.log" 2>&1 &
    a_pid=$!
}
start_b() {
    # shellcheck disable=SC2086
    "$workdir/powserved" -addr "$B_ADDR" -data-dir "$workdir/b-data" $SRV_FLAGS \
        -repl-ack sync -role follower -follow "http://$PA" -follower-id b \
        -elect-id b -advertise "http://$PB" $ELECT_FLAGS \
        -peer "a=http://$PBA" -peer "w=http://$PBW,witness" \
        >>"$workdir/b.log" 2>&1 &
    b_pid=$!
}

echo "election-smoke: starting witness + 6 link proxies + replicated pair"
start_w
start_proxy pa_pid "$PA" "$A_ADDR"
start_proxy pb_pid "$PB" "$B_ADDR"
start_proxy pab_pid "$PAB" "$PB"
start_proxy paw_pid "$PAW" "$W_ADDR"
start_proxy pba_pid "$PBA" "$PA"
start_proxy pbw_pid "$PBW" "$W_ADDR"
start_a
start_b
wait_addr "$workdir/a.log" >/dev/null
wait_addr "$workdir/b.log" >/dev/null
wait_addr "$workdir/w.log" >/dev/null

leader=$(wait_leader 15)
[ "$leader" = "a" ] || { echo "election-smoke: configured primary a did not lead first (got $leader)"; exit 1; }
echo "election-smoke: group settled, a leads"

# Paced load so all six rounds land mid-ingest; the shipper's failover
# list is both ingress proxies, and the not_primary hint routes it.
# -fault-timeout is the overall delivery deadline: the load itself is
# ~24s of sending, but it spends most of the drill waiting out faults.
"$workdir/powload" -addr "http://$PA" -failover "http://$PB" \
    -dataset "$workdir/traces/emmy" \
    -batch 256 -concurrency 1 -max-samples $MAX_SAMPLES -fault -rate 2500 \
    -fault-timeout 14m \
    >"$workdir/load.log" 2>&1 &
load_pid=$!
sleep 1

other() { [ "$1" = "a" ] && echo b || echo a; }
restart() {
    case "$1" in
    a) start_a ;;
    b) start_b ;;
    esac
}

rejoins_round=0
round() { # <n> <fault>  — induce, wait failover, heal, wait rejoin
    n=$1; fault=$2
    leader=$(wait_leader 30)
    standby=$(other "$leader")
    assert_single_lease
    echo "election-smoke: round $n: $fault (leader $leader, standby $standby)"
    case "$fault" in
    kill-primary)
        require_load_alive "$n"
        eval "kill -9 \$${leader}_pid"
        eval "wait \$${leader}_pid" 2>/dev/null || true
        wait_takeover "$standby" 30 || { echo "election-smoke: standby $standby did not take over"; exit 1; }
        restart "$leader"
        wait_follower "$leader" 60
        rejoins_round=$((rejoins_round + 1))
        ;;
    kill-standby)
        require_load_alive "$n"
        eval "kill -9 \$${standby}_pid"
        eval "wait \$${standby}_pid" 2>/dev/null || true
        sleep 1
        restart "$standby"
        wait_follower "$standby" 60
        ;;
    partition-both)
        require_load_alive "$n"
        # shellcheck disable=SC2046
        cut both $(proxies_of "$leader")
        wait_takeover "$standby" 30 || { echo "election-smoke: no takeover across the symmetric split"; exit 1; }
        # shellcheck disable=SC2046
        heal $(proxies_of "$leader")
        wait_follower "$leader" 60
        rejoins_round=$((rejoins_round + 1))
        ;;
    partition-egress)
        require_load_alive "$n"
        # Asymmetric: the leader can be reached but cannot reach its
        # peers — it must lose its lease (and go silent) while the
        # standby campaigns and wins through the witness.
        case "$leader" in
        a) cut both "$PAB" "$PAW" ;;
        b) cut both "$PBA" "$PBW" ;;
        esac
        wait_takeover "$standby" 30 || { echo "election-smoke: no takeover across the egress split"; exit 1; }
        case "$leader" in
        a) heal "$PAB" "$PAW" ;;
        b) heal "$PBA" "$PBW" ;;
        esac
        wait_follower "$leader" 60
        rejoins_round=$((rejoins_round + 1))
        ;;
    flap)
        # A link flapping faster than the lease TTL must not split the
        # brain; whether the leader rides it out or hands off, exactly
        # one lease-holder may exist once the link settles.
        case "$leader" in
        a) flaps="$PAB $PAW" ;;
        b) flaps="$PBA $PBW" ;;
        esac
        for ctl in $flaps; do
            curl -sf -X POST "http://$ctl/chaosctl/flap?mode=both&period=300ms" >/dev/null
        done
        sleep 3
        for ctl in $flaps; do
            curl -sf -X POST "http://$ctl/chaosctl/flap?period=0" >/dev/null
        done
        wait_leader 30 >/dev/null
        ;;
    esac
    assert_single_lease
}

round 1 kill-primary
round 2 partition-both
round 3 partition-egress
round 4 kill-standby
round 5 flap
round 6 partition-both

echo "election-smoke: all rounds done ($rejoins_round automatic rejoins) — draining load"
wait $load_pid || { echo "election-smoke: powload failed"; cat "$workdir/load.log"; exit 1; }
load_pid=""
grep -q "fault mode verified: zero loss, zero double-counting" "$workdir/load.log" || {
    echo "election-smoke: load did not verify across the drill"; cat "$workdir/load.log"; exit 1; }

# ---- settle, then compare against the control -----------------------
leader=$(wait_leader 30)
standby=$(other "$leader")
wait_follower "$standby" 60
case "$leader" in a) leader_addr=$A_ADDR ;; b) leader_addr=$B_ADDR ;; esac

i=0
while :; do
    case "$(readyz "$standby")" in *'"repl_lag_records":0'*) break ;; esac
    i=$((i + 1))
    [ $i -gt 300 ] && { echo "election-smoke: replication lag never drained"; exit 1; }
    sleep 0.1
done

echo "election-smoke: checking election metrics and rejoin counters"
curl -sf "http://$leader_addr/metrics" >"$workdir/metrics.txt"
for metric in powserved_repl_epoch powserved_repl_rejoins_total powserved_elect_diverged_records; do
    grep -q "$metric" "$workdir/metrics.txt" || {
        echo "election-smoke: /metrics missing $metric"; exit 1; }
done
total_rejoins=0
for n in a b; do
    r=$(readyz $n | sed -n 's/.*"rejoins":\([0-9]*\).*/\1/p')
    total_rejoins=$((total_rejoins + ${r:-0}))
done
[ "$total_rejoins" -ge "$rejoins_round" ] || {
    echo "election-smoke: $total_rejoins rejoins reported, want >= $rejoins_round"; exit 1; }

echo "election-smoke: comparing final analytics against the fault-free control"
dump_state "http://$leader_addr" "$workdir/final"
cmp "$workdir/control/summary.json" "$workdir/final/summary.json" || {
    echo "election-smoke: /v1/summary diverged from the control"; exit 1; }
cmp "$workdir/control/ids" "$workdir/final/ids" || {
    echo "election-smoke: job sets differ"; exit 1; }
njobs=0
while read -r id; do
    [ -n "$id" ] || continue
    njobs=$((njobs + 1))
    cmp "$workdir/control/job-$id.json" "$workdir/final/job-$id.json" || {
        echo "election-smoke: job $id diverged from the control"; exit 1; }
done <"$workdir/control/ids"
echo "election-smoke: summary + $njobs jobs byte-identical to the control"

echo "election-smoke: graceful shutdown"
kill -TERM $a_pid $b_pid $w_pid $pa_pid $pb_pid $pab_pid $paw_pid $pba_pid $pbw_pid 2>/dev/null || true
for p in $a_pid $b_pid $w_pid; do wait $p 2>/dev/null || true; done
a_pid=""; b_pid=""; w_pid=""
pa_pid=""; pb_pid=""; pab_pid=""; paw_pid=""; pba_pid=""; pbw_pid=""

echo "election-smoke: OK (6 rounds, $total_rejoins automatic rejoins, zero acked loss, single lease-holder throughout)"
