#!/usr/bin/env bash
# Builds pacd, pacgw and pacbench from the checkout it runs in, then runs
# pacbench with the given arguments. Run it from the root of
# the repository:
#
#   bash pacbench/run.sh --workload kernel --seed 1 --seconds 15 --trace 0
#
# Every build product, the Go build cache and the fleet's data directories
# live under .bench_build/ at the root, so the benchmark reads and writes
# nothing outside the checkout. Build output goes to stderr; the last line
# of stdout is pacbench's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"

go build -o "$out/bin/pacd" ./cmd/pacd 1>&2
go build -o "$out/bin/pacgw" ./cmd/pacgw 1>&2
(cd pacbench && go build -o "$out/bin/pacbench" .) 1>&2

exec "$out/bin/pacbench" -bin "$out/bin" -work "$out" "$@"
