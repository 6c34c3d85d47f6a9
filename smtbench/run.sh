#!/usr/bin/env bash
# Builds the benchmark against the checkout it runs in and runs it:
#
#   bash smtbench/run.sh --workload machine --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, cell stores, span files) stays under
# $CARGO_TARGET_DIR, default .bench_build. With --build-only as the only
# argument it builds and prints the binary's path instead of running.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

(cd smtbench && go build -o "$build/smtbench" .) >&2
if [ "${1:-}" = "--build-only" ]; then
	echo "$build/smtbench"
	exit 0
fi
exec "$build/smtbench" --workdir "$build" "$@"
