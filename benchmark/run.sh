#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it,
# forwarding every argument. Run it from the repository root:
#
#   bash benchmark/run.sh --workload pde-cg --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the go command's temporary files and
# the trace files stay under .bench_build/ in the current directory, so
# nothing is written outside the checkout. Without the javelin sources
# next to benchmark/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off GOFLAGS=
go -C "$root/benchmark" build -o "$out/javelin-benchmark" . >&2
exec "$out/javelin-benchmark" "$@"
