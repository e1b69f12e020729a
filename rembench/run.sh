#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash rembench/run.sh --workload point_reads --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL directories, span files) stays under
# .bench_build in that root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/rembench" && go build -o "$out/rembench" .)
exec "$out/rembench" "$@"
