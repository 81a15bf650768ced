#!/usr/bin/env bash
# benchpairs.sh — compare a git revision with the working tree on one
# dsctbench workload, in alternating pairs of runs.
#
#   bash scripts/benchpairs.sh -workload daemon-churn [-base REV] [-n N] [-seed S] [-seconds T]
#
# The base revision (default HEAD) is exported with `git archive` into
# .bench_build/pairs/base-<sha>/ and built there; the working tree is
# built in place. Each pair runs `bash dsctbench/run.sh --trace 0` once on
# each side with the same workload, seed and seconds, alternating which
# side goes first, and keeps each run's last JSON line in
# .bench_build/pairs/<workload>-seed<S>/{base,change}.jsonl. The summary is
# `benchjson -pairs` over the two files: per metric, each side's median and
# quartiles and the number of pairs the change won, in the direction
# BENCHMARK.json gives the metric. Defaults: -n 10, -seed 1, -seconds 20.
#
# run.sh rebuilds its tree before every run, so leave the working tree
# unchanged until the pairs finish. The script writes nothing outside
# .bench_build/ and edits neither dsctbench/ nor BENCHMARK.json.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)

workload=""
base="HEAD"
pairs=10
seed=1
seconds=20
while [ $# -gt 0 ]; do
  case "$1" in
    -workload) shift; workload="${1:-}" ;;
    -base) shift; base="${1:-}" ;;
    -n) shift; pairs="${1:-}" ;;
    -seed) shift; seed="${1:-}" ;;
    -seconds) shift; seconds="${1:-}" ;;
    *) echo "benchpairs.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done
[ -n "$workload" ] || { echo "benchpairs.sh: -workload is required" >&2; exit 2; }
case "$pairs" in ''|*[!0-9]*|0) echo "benchpairs.sh: -n needs a positive count, got '$pairs'" >&2; exit 2 ;; esac

sha=$(git rev-parse --verify "$base^{commit}")
tree="$root/.bench_build/pairs/base-$sha"
if [ ! -f "$tree/dsctbench/run.sh" ]; then
  echo "==> exporting $base ($sha) to $tree"
  rm -rf "$tree"
  mkdir -p "$tree"
  git archive "$sha" | tar -x -C "$tree"
fi

out="$root/.bench_build/pairs/$workload-seed$seed"
mkdir -p "$out"
: >"$out/base.jsonl"
: >"$out/change.jsonl"

# run <side>: one benchmark run on that side; its last JSON line is kept.
run() {
  local side="$1" dir="$root" line
  [ "$side" = base ] && dir="$tree"
  line=$(cd "$dir" && bash dsctbench/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | grep '^{' | tail -n 1)
  [ -n "$line" ] || { echo "benchpairs.sh: $side run printed no JSON line" >&2; exit 1; }
  echo "$line" >>"$out/$side.jsonl"
  echo "   $side: $line"
}

for i in $(seq 1 "$pairs"); do
  echo "==> pair $i/$pairs ($workload, seed $seed, ${seconds}s)"
  if [ $((i % 2)) -eq 1 ]; then
    run base
    run change
  else
    run change
    run base
  fi
done

echo "==> benchjson -pairs ($out)"
go run ./cmd/benchjson -pairs -benchmark BENCHMARK.json "$out/base.jsonl" "$out/change.jsonl"
