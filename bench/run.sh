#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from
# the checkout root with the arguments given. HOME and the Go caches
# point into .bench_build/ so that nothing is written outside the
# checkout (build cache, module cache, toolchain telemetry).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"
unset XDG_CACHE_HOME XDG_CONFIG_HOME
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/pibench11" .) >&2
cd "$root"
exec "$build/pibench11" "$@"
