#!/usr/bin/env bash
# Builds cmd/serve and the benchmark driver from source into
# .bench_build/perfbench, then runs the driver with this script's
# arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload hot-estimate --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -o "$out/serve" ./cmd/serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve "$out/serve" -work "$out" "$@"
