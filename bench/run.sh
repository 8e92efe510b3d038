#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash bench/run.sh --workload daemon-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/, the Go
# build cache included.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry and settings
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
