#!/usr/bin/env bash
# BENCHMARK.json's command: build the bench inside the checkout (Go's
# build cache included, so nothing is written outside it), then become
# it. Takes the bench's own flags: --workload --seed --seconds --trace.
set -euo pipefail
export GOCACHE="$PWD/.bench_build/gocache"
mkdir -p .bench_build/bin
go build -o .bench_build/bin/bench ./bench
exec .bench_build/bin/bench "$@"
