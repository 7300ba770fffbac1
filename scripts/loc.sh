#!/usr/bin/env bash
# Line count of a change: the added, removed and net lines of non-test Go
# outside bench/ and testdata/, from BASE (a git revision, default HEAD)
# to the working tree. Untracked Go files that git does not ignore count
# as added. Usage: scripts/loc.sh [BASE]   (or: make loc BASE=<rev>)
set -euo pipefail

cd "$(dirname "$0")/.."

base=${1:-HEAD}
paths=('*.go' ':(exclude)*_test.go' ':(exclude)bench/*' ':(exclude)testdata/*' ':(exclude)*/testdata/*')

read -r added removed < <(git diff --numstat "$base" -- "${paths[@]}" |
	awk '{a += $1; r += $2} END {print a + 0, r + 0}')
while IFS= read -r f; do
	added=$((added + $(wc -l < "$f")))
done < <(git ls-files --others --exclude-standard -- "${paths[@]}")

echo "non-test Go since $base (outside bench/ and testdata/): +$added -$removed net $((added - removed))"
