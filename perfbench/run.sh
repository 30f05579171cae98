#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload typo-reload --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the toolchain's scratch and config
# directories, the binary and the per-run profile files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export GOMODCACHE="$out/gomodcache"

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -dir "$out" "$@"
