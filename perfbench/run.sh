#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload point-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary and the Go build cache
# live in .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/olapbench" .) >&2
exec "$out/olapbench" "$@"
