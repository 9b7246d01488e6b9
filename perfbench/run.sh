#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload mlp-serve --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, traces, checkpoint scratch) lands under .bench_build/ in the
# current directory. A checkout without the program's sources fails the
# build and exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

# The report's commit stamp comes from `git rev-parse HEAD` in the checkout;
# keep git from searching the directories above it.
export GIT_CEILING_DIRECTORIES=$(dirname "$root")

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
