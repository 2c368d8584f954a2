#!/usr/bin/env bash
# Builds the end-to-end tuning benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload tune-local --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temp files, the binary, the run's work directory)
# stays under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -work "$build" "$@"
