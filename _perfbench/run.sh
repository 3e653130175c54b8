#!/usr/bin/env bash
# Builds hpnn-serve and the benchmark from the checkout it runs in, then
# runs one workload. Run from the repository root:
#
#   bash _perfbench/run.sh --workload wire_cnn1 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go build -o "$out/hpnn-serve" ./cmd/hpnn-serve 1>&2
(cd _perfbench && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" -serve-bin "$out/hpnn-serve" -work-dir "$out/tmp" "$@"
