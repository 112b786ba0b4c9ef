#!/usr/bin/env bash
# Builds the benchmark harness and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload suite-cold --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare base.jsonl head.jsonl
#
# The Go build cache, temporary files, binaries and run state all stay
# under .bench_build/ in the repository root, and no module is fetched.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the repository root (no bench/go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
