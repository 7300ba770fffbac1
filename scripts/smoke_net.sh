#!/usr/bin/env bash
# Multi-process smoke test: build the real binaries, run one journaled
# benu-master and two benu-worker processes over loopback TCP on a small
# dataset, check the master's reported match count against the
# single-process benu run of the same pattern × preset, and require both
# workers to exit 0 within 2 s of the master. The first pass runs the
# default — the batched data plane, which must hold the workers' store
# trips under half the task count — and the second runs -prefetch=false,
# which must count the same and make more trips. Bounded to seconds — this
# is the CI gate that the shipped binaries actually deploy.
set -euo pipefail

cd "$(dirname "$0")/.."

PATTERN=${PATTERN:-q4}
PRESET=${PRESET:-as}
PORT=${PORT:-17077}

bin=$(mktemp -d)
trap 'rm -rf "$bin"; kill $(jobs -p) 2>/dev/null || true' EXIT

go build -o "$bin/benu" ./cmd/benu
go build -o "$bin/benu-master" ./cmd/benu-master
go build -o "$bin/benu-worker" ./cmd/benu-worker

# Reference count from the single-process deployment ("matches: N").
ref=$("$bin/benu" -pattern "$PATTERN" -preset "$PRESET" | sed -n 's/^matches: \([0-9]*\).*/\1/p')
if [ -z "$ref" ]; then
    echo "smoke_net: could not parse reference match count" >&2
    exit 1
fi

# deploy <tag> [master flags]: one journaled master and two workers on
# the job; sets $net (the master's match count) and leaves the processes'
# output in $bin/<tag>-{master,w1,w2}.out.
deploy() {
    local tag=$1
    shift
    local out="$bin/$tag"
    "$bin/benu-master" -pattern "$PATTERN" -preset "$PRESET" -listen "127.0.0.1:$PORT" -journal "$out.journal" "$@" >"$out-master.out" 2>&1 &
    local master_pid=$!

    # Wait for the master to bind before pointing workers at it.
    for _ in $(seq 1 50); do
        grep -q "serving tasks" "$out-master.out" 2>/dev/null && break
        sleep 0.1
    done

    "$bin/benu-worker" -master "127.0.0.1:$PORT" -threads 2 -name smoke-w1 -metrics >"$out-w1.out" 2>&1 &
    local w1_pid=$!
    "$bin/benu-worker" -master "127.0.0.1:$PORT" -threads 2 -name smoke-w2 -metrics >"$out-w2.out" 2>&1 &
    local w2_pid=$!

    if ! wait "$master_pid"; then
        echo "smoke_net[$tag]: master failed" >&2
        cat "$out-master.out" >&2
        exit 1
    fi
    # The workers hear "done" from the master before it exits, so they must
    # be gone, cleanly, right behind it — not retrying a master that left
    # for their whole -rejoin-for window.
    for _ in $(seq 1 20); do
        kill -0 "$w1_pid" 2>/dev/null || kill -0 "$w2_pid" 2>/dev/null || break
        sleep 0.1
    done
    for w in 1 2; do
        local pid_var="w${w}_pid"
        if kill -0 "${!pid_var}" 2>/dev/null; then
            echo "smoke_net[$tag]: worker $w still running 2s after the master exited" >&2
            tail -3 "$out-w$w.out" >&2
            exit 1
        fi
        if ! wait "${!pid_var}"; then
            echo "smoke_net[$tag]: worker $w exited non-zero" >&2
            tail -3 "$out-w$w.out" >&2
            exit 1
        fi
    done

    net=$(sed -n 's/^matches=\([0-9]*\).*/\1/p' "$out-master.out")
    if [ "$net" != "$ref" ]; then
        echo "smoke_net[$tag]: multi-process count $net != single-process count $ref" >&2
        cat "$out-master.out" >&2
        exit 1
    fi
    local workers
    workers=$(sed -n 's/.*workers=\([0-9]*\).*/\1/p' "$out-master.out")
    if [ "$workers" != "2" ]; then
        echo "smoke_net[$tag]: master saw $workers workers, want 2" >&2
        cat "$out-master.out" >&2
        exit 1
    fi
}

# trips <tag>: store round trips summed over both workers of a pass.
trips() {
    cat "$bin/$1-w1.out" "$bin/$1-w2.out" | awk '$1 == "cluster.db.trips" { n += $2 } END { print n + 0 }'
}

# The default: the lease-window prefetch replaces the single-key trip
# every task used to open with and the frontier the per-task batch behind
# it — fewer than half as many store round trips as tasks, summed over
# both workers.
deploy default
tasks=$(sed -n 's/.* tasks=\([0-9]*\) .*/\1/p' "$bin/default-master.out")
on=$(trips default)
if [ -z "$tasks" ] || [ "$on" -le 0 ] || [ $((2 * on)) -ge "$tasks" ]; then
    echo "smoke_net[default]: $on store trips for ${tasks:-?} tasks, want 0 < trips < tasks/2" >&2
    exit 1
fi

# Once more with the paper's one-query-per-miss data plane: same count
# (deploy checks it), more trips.
deploy plain -prefetch=false
off=$(trips plain)
if [ "$off" -le "$on" ]; then
    echo "smoke_net[plain]: $off store trips with -prefetch=false, $on with the default: want more" >&2
    exit 1
fi
echo "smoke_net: OK ($PATTERN on $PRESET: $net matches across 2 worker processes; $on store trips for $tasks tasks, $off with -prefetch=false)"
