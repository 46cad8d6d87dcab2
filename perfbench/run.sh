#!/usr/bin/env bash
# run.sh — build rrsd and the benchmark from source, then run one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload zoom-session --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, temp files and span dumps go to
# .bench_build/; nothing is written outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# Telemetry off: otherwise each go command may start a detached upload
# process that outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

# Build output goes to stderr: the last stdout line is the result.
go build -o "$out/rrsd" ./cmd/rrsd >&2
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" -rrsd "$out/rrsd" -out "$out" "$@"
