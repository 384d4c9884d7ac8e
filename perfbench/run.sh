#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it.
#
#   bash perfbench/run.sh --workload pingpong --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every Go cache, temporary file and the binary
# itself stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
