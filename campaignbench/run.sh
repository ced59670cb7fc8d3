#!/usr/bin/env bash
# Builds the campaign benchmark and the ftserve binary from this checkout
# into .bench_build/, then runs the benchmark with the given arguments:
#
#   bash campaignbench/run.sh --workload plain-whole --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it writes stays under
# .bench_build/ (Go build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME and GOTMPDIR keep the go command's telemetry and work
# directories inside .bench_build too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(
	cd "$root/campaignbench"
	go build -o "$out/campaignbench" .
	go build -o "$out/ftserve" fliptracker/cmd/ftserve
) >&2

exec "$out/campaignbench" --ftserve "$out/ftserve" --workdir "$out" "$@"
