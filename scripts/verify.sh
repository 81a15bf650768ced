#!/usr/bin/env bash
# verify.sh — the repository's full verification gate.
#
# Runs, in order: gofmt (no unformatted files anywhere in the module),
# build, go vet, the project's own static analyzers (cmd/dsctalint), the
# hot-path escape gate (dsctalint -escape against the committed
# LINT_ESCAPE.json baseline), the allocation pins (the TestAllocs*
# AllocsPerRun tests: zero-allocation kernels in lp and core, the warm
# engine flush's ceiling in incremental; the race suite skips them because
# -race perturbs allocation counts, so they get their own non-race pass
# here), the race-enabled test suite and a cmd/dsctd trace-replay smoke
# test (batched). Idempotent: safe to run repeatedly from any working
# directory. Exits non-zero on the first failure.
#
# With -bench, additionally runs the simplex benchmark suite — cold-vs-warm
# (BenchmarkMIPColdVsWarm, BenchmarkWarmVsColdLP) and rows-vs-bounds
# (BenchmarkBoundsVsRowsLP, whose rows arm is the test-only expandBounds
# reference encoding), plus the
# batch-throughput benchmark (BenchmarkBatchThroughputLP over the
# 240-instance corpus; fresh-vs-pooled workspace segments reporting
# instances/sec and allocs/op) and the
# branch-and-bound search on hard fig4 instances (BenchmarkMIPBranchAndCut,
# named before the search lost its cutting planes; the diff gates its node
# counts) and the incremental-engine event-stream
# pair (BenchmarkIncrementalResolve cold-vs-warm per-event re-solves,
# BenchmarkEventThroughput events/sec over a full mixed trace) and the
# combinatorial FR solver (BenchmarkSolveFRScaling, DSCT-EA-FR-OPT at
# n=100/200/500; BenchmarkAblationSegtreeVsScan, Algorithm 1's O(n²) scan
# vs its default latest-interval kernel; BenchmarkApproxEndToEnd,
# FR-OPT plus DSCT-EA-APPROX rounding at n=100, m=5;
# BenchmarkAblationRefineVariants, the four refinement variants on a
# Fig 6b instance, where refinement's line searches do the work) and the
# exact search with the rounding hook (BenchmarkAblationParallelMIP, whose
# workers=1 name matches the records taken while helper goroutines
# existed; the only root benchmark that runs MIPModel.RoundingHook and so
# the fixed-assignment evaluator) and Table 1's LP column as the fr-lp
# workload runs it (BenchmarkFRLPCold, cold lp.Solve of model.BuildFR at
# n=100/150/200, m=5, with its pivot count) —
# records the parsed results, including
# per-pair speedups, in BENCH_PR<cur>.json via cmd/benchjson, and diffs
# them against the committed BENCH_PR<prev>.json baseline (shared
# benchmarks only). The diff holds the deterministic counts (nodes,
# pivots, strong-branches, probes/op, basis-rows, allocs/op) to equality,
# except the moves listed with -allow bench:metric,... (passed through to
# benchjson), and gates ns/op, instances/sec and events/sec at x2.5 to
# ride out machine noise. <prev> is
# the highest-numbered committed BENCH_PR*.json and <cur> is <prev>+1;
# override with -pr N to write BENCH_PR<N>.json and diff against the
# highest committed baseline below N.
#
# With -profile, runs a paper-scale experiment under cmd/experiments'
# -cpuprofile/-memprofile flags and leaves the pprof files in profiles/.
set -euo pipefail

cd "$(dirname "$0")/.."

run_bench=0
run_profile=0
pr_cur=""
allow=""
while [ $# -gt 0 ]; do
  case "$1" in
    -bench) run_bench=1 ;;
    -profile) run_profile=1 ;;
    -pr)
      shift
      [ $# -gt 0 ] || { echo "verify.sh: -pr needs a number" >&2; exit 2; }
      pr_cur="$1"
      case "$pr_cur" in
        ''|*[!0-9]*) echo "verify.sh: -pr needs a number, got '$pr_cur'" >&2; exit 2 ;;
      esac
      ;;
    -allow)
      shift
      [ $# -gt 0 ] || { echo "verify.sh: -allow needs bench:metric[,...]" >&2; exit 2; }
      allow="$1"
      ;;
    *) echo "verify.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

# bench_prev <cur> — highest committed BENCH_PR<N>.json with N < cur.
bench_prev() {
  local cur="$1" best="" n
  for f in BENCH_PR*.json; do
    [ -e "$f" ] || continue
    n="${f#BENCH_PR}"; n="${n%.json}"
    case "$n" in ''|*[!0-9]*) continue ;; esac
    if [ "$n" -lt "$cur" ] && { [ -z "$best" ] || [ "$n" -gt "$best" ]; }; then
      best="$n"
    fi
  done
  echo "$best"
}

echo "==> gofmt -l"
unformatted="$(gofmt -l . 2>/dev/null || true)"
if [ -n "$unformatted" ]; then
  echo "verify.sh: unformatted files (run gofmt -w):" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> dsctalint ./..."
go run ./cmd/dsctalint ./...

echo "==> dsctalint -escape (LINT_ESCAPE.json baseline)"
go run ./cmd/dsctalint -escape -baseline LINT_ESCAPE.json ./...

echo "==> go test -run '^TestAllocs' ./internal/lp/ ./internal/core/ ./internal/incremental/ (allocation pins, non-race)"
go test -run '^TestAllocs' ./internal/lp/ ./internal/core/ ./internal/incremental/

echo "==> go test -race ./..."
go test -race ./...

echo "==> dsctd replay smoke test"
go run ./cmd/dsctd -replay 60 -tasks 8 -machines 2 -seed 1 -batch 4 >/dev/null

if [ "$run_bench" = 1 ]; then
  if [ -z "$pr_cur" ]; then
    prev="$(bench_prev 1000000)"
    if [ -z "$prev" ]; then
      echo "verify.sh: no committed BENCH_PR*.json baseline; pass -pr N" >&2
      exit 2
    fi
    pr_cur=$((prev + 1))
  else
    prev="$(bench_prev "$pr_cur")"
  fi

  echo "==> simplex benchmarks -> BENCH_PR${pr_cur}.json"
  {
    go test -run='^$' -bench='^BenchmarkMIPColdVsWarm$' -benchtime=3x -count=4 .
    go test -run='^$' -bench='^BenchmarkMIPBranchAndCut$' -benchtime=1x -count=2 -timeout 30m .
    go test -run='^$' -bench='^BenchmarkWarmVsColdLP$' -benchtime=50x -count=4 ./internal/lp/
    go test -run='^$' -bench='^BenchmarkBoundsVsRowsLP$' -benchtime=2x -count=3 ./internal/lp/
    go test -run='^$' -bench='^BenchmarkBatchThroughputLP$' -benchtime=20x -count=3 ./internal/lp/
    go test -run='^$' -bench='^BenchmarkIncrementalResolve$' -benchtime=3x -count=3 -timeout 30m ./internal/incremental/
    go test -run='^$' -bench='^BenchmarkEventThroughput$' -benchtime=3x -count=3 -timeout 30m ./internal/incremental/
    go test -run='^$' -bench='^BenchmarkSolveFRScaling$' -benchtime=10x -count=3 -timeout 30m .
    go test -run='^$' -bench='^BenchmarkAblationSegtreeVsScan$' -benchtime=20x -count=3 .
    go test -run='^$' -bench='^BenchmarkApproxEndToEnd$' -benchtime=20x -count=3 .
    go test -run='^$' -bench='^BenchmarkAblationRefineVariants$' -benchtime=20x -count=3 .
    go test -run='^$' -bench='^BenchmarkAblationParallelMIP$' -benchtime=20x -count=3 .
    go test -run='^$' -bench='^BenchmarkFRLPCold$' -benchtime=5x -count=3 .
  } | tee /dev/stderr | go run ./cmd/benchjson -label "PR ${pr_cur}" -o "BENCH_PR${pr_cur}.json"

  if [ -n "$prev" ]; then
    echo "==> benchjson -diff BENCH_PR${prev}.json BENCH_PR${pr_cur}.json"
    go run ./cmd/benchjson -diff -threshold 2.5 ${allow:+-allow "$allow"} "BENCH_PR${prev}.json" "BENCH_PR${pr_cur}.json"
  else
    echo "==> no committed baseline below PR ${pr_cur}; skipping diff"
  fi
fi

if [ "$run_profile" = 1 ]; then
  echo "==> profiled experiment run -> profiles/"
  mkdir -p profiles
  go run ./cmd/experiments -run fig4a -scale 0.2 -reps 1 \
    -cpuprofile profiles/cpu.out -memprofile profiles/mem.out >/dev/null
  echo "profiles: inspect with 'go tool pprof profiles/cpu.out'"
fi

echo "verify: all checks passed"
