#!/usr/bin/env bash
# Builds tagebench from this checkout's sources and runs it with the given
# flags, from the checkout root:
#
#   bash bench/run.sh --workload serve-stream --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the serving workloads' scratch state
# all live under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$out/tagebench" ./tagebench
cd "$root"
exec "$out/tagebench" -workdir "$out" "$@"
