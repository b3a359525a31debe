#!/usr/bin/env bash
# Builds the greenfpga server and the benchmark from this checkout, then
# runs one benchmark run; arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload hit-floor --seed 1 --seconds 12 --trace 0
#
# Run it from the checkout root. Every build product, the Go build cache
# included, stays under .bench_build/, and no module is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/greenfpga" ./cmd/greenfpga
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/greenfpga" -root "$root" "$@"
