#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# and the run write — Go build cache, temporary files, ledgers, trace
# files — stays under benchmark/out. Arguments pass through:
#
#   bash benchmark/run.sh --workload sat-noop --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
out="$PWD/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
export BENCH_COMMIT
# No VCS stamping: a checkout nested in someone else's repository must still build.
go build -buildvcs=false -o "$out/benchmark" .
exec "$out/benchmark" "$@"
