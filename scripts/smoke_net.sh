#!/usr/bin/env bash
# Multi-process smoke test: build the real binaries, run one journaled
# benu-master and two benu-worker processes over loopback TCP on a small
# dataset, check the master's reported match count against the
# single-process benu run of the same pattern × preset, and require both
# workers to exit 0 within 2 s of the master. Bounded to seconds — this is
# the CI gate that the shipped binaries actually deploy.
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

"$bin/benu-master" -pattern "$PATTERN" -preset "$PRESET" -listen "127.0.0.1:$PORT" -journal "$bin/job.journal" >"$bin/master.out" 2>&1 &
master_pid=$!

# Wait for the master to bind before pointing workers at it.
for _ in $(seq 1 50); do
    grep -q "serving tasks" "$bin/master.out" 2>/dev/null && break
    sleep 0.1
done

"$bin/benu-worker" -master "127.0.0.1:$PORT" -threads 2 -name smoke-w1 >"$bin/w1.out" 2>&1 &
w1_pid=$!
"$bin/benu-worker" -master "127.0.0.1:$PORT" -threads 2 -name smoke-w2 >"$bin/w2.out" 2>&1 &
w2_pid=$!

if ! wait "$master_pid"; then
    echo "smoke_net: master failed" >&2
    cat "$bin/master.out" >&2
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
    pid_var="w${w}_pid"
    if kill -0 "${!pid_var}" 2>/dev/null; then
        echo "smoke_net: worker $w still running 2s after the master exited" >&2
        tail -3 "$bin/w$w.out" >&2
        exit 1
    fi
    if ! wait "${!pid_var}"; then
        echo "smoke_net: worker $w exited non-zero" >&2
        tail -3 "$bin/w$w.out" >&2
        exit 1
    fi
done

net=$(sed -n 's/^matches=\([0-9]*\).*/\1/p' "$bin/master.out")
if [ "$net" != "$ref" ]; then
    echo "smoke_net: multi-process count $net != single-process count $ref" >&2
    cat "$bin/master.out" >&2
    exit 1
fi
workers=$(sed -n 's/.*workers=\([0-9]*\).*/\1/p' "$bin/master.out")
if [ "$workers" != "2" ]; then
    echo "smoke_net: master saw $workers workers, want 2" >&2
    cat "$bin/master.out" >&2
    exit 1
fi
echo "smoke_net: OK ($PATTERN on $PRESET: $net matches across 2 worker processes)"
