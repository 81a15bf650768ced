#!/usr/bin/env bash
# Builds the DSCT-EA benchmark from source and runs it. Invoke from the
# repository root:
#
#   bash dsctbench/run.sh --workload approx-large --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= GOENV=off CGO_ENABLED=0

(cd "$root/dsctbench" && go build -o "$out/dsctbench" .)
exec "$out/dsctbench" "$@"
