# Prelude shared by the smoke drills (POSIX sh; source it, do not run it).
# A drill sets `name` (its log prefix) and `workdir`, installs its own
# EXIT trap (the pids to kill differ per drill), then sources this file:
#
#     name=overload-smoke
#     workdir=$(mktemp -d)
#     . "$(dirname "$0")/lib.sh"
#     build_bins -race powsim powserved powload
#     gen_dataset

# build_bins [-race] <cmd>...: go build each ./cmd/<cmd> into $workdir.
build_bins() {
    race=""
    [ "$1" = "-race" ] && { race="-race"; shift; }
    echo "$name: building binaries${race:+ ($race)}"
    for b in "$@"; do
        go build $race -o "$workdir/$b" "./cmd/$b"
    done
}

# gen_dataset: the 2%-scale Emmy dataset every drill replays, in
# $workdir/traces/emmy (~640 jobs, ~136k samples; deterministic).
gen_dataset() {
    echo "$name: generating dataset (emmy, 2% scale)"
    "$workdir/powsim" -system emmy -scale 0.02 -seed 42 -out "$workdir/traces" >/dev/null
}

# wait_addr <logfile>: echo the bound address once the daemon reports it.
wait_addr() {
    i=0
    while [ $i -lt 150 ]; do
        a=$(sed -n 's/^pow[a-z]*: listening on \([^ ]*\).*/\1/p' "$1" | head -n1)
        [ -n "$a" ] && { echo "$a"; return 0; }
        sleep 0.1
        i=$((i + 1))
    done
    echo "$name: daemon behind $1 did not report its address" >&2
    cat "$1" >&2
    return 1
}

# metric <addr> <name>: print an unlabeled metric's value (empty if absent).
metric() {
    curl -sf "http://$1/metrics" | sed -n "s/^$2 \\(.*\\)/\\1/p"
}

# wait_metric <addr> <name> <want> <tries>: poll until the metric equals want.
wait_metric() {
    i=0
    while [ $i -lt "$4" ]; do
        [ "$(metric "$1" "$2")" = "$3" ] && return 0
        sleep 0.1
        i=$((i + 1))
    done
    echo "$name: $2 never reached $3 (last: $(metric "$1" "$2"))" >&2
    return 1
}
