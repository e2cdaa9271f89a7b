#!/usr/bin/env bash
# Builds the gfsperf benchmark from the source in this checkout and
# runs it with the given arguments, e.g.
#
#	bash gfsperf/run.sh --workload paper-high --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays
# under .bench_build/ at the checkout root, and the Go toolchain is
# kept offline: the benchmark's module resolves the simulator through a
# replace directive onto the checkout itself, so a directory without
# the simulator's sources fails the build and exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root/gfsperf"
go build -o "$out/gfsperf" .
cd "$root"
exec "$out/gfsperf" "$@"
