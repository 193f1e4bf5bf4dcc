#!/usr/bin/env bash
# run.sh builds the benchmark from the source tree it sits in and runs it.
# Call it from the repository root; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload fleet-tiered-day --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the go command's config and telemetry
# directory (XDG_CONFIG_HOME) live in .bench_build, so nothing is read from
# or written to outside the checkout except the Go toolchain.
set -euo pipefail

root="$PWD"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
