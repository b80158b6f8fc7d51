#!/usr/bin/env bash
# Builds the benchmark from source and runs it: `bash bench/run.sh <flags>`
# from the root of a checkout. Everything the build and the run write
# stays inside the checkout: the binary, the Go caches and temporary files
# under .bench_build/, a traced run's spans under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
# The harness sets GOMAXPROCS, the collector's pace and the memory limit
# itself; nothing inherited may change what it measures.
unset GOMAXPROCS GOGC GOMEMLIMIT GODEBUG
# Built without VCS stamping so that it also builds outside a work tree.
export BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
(cd "$here" && go build -buildvcs=false -o "$build/bench" .)
exec "$build/bench" -outdir "$here/out" "$@"
