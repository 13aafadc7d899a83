#!/usr/bin/env bash
# Full verification: the tier-1 suite in the default build, a smoke
# run of the end-to-end benchmark (perfbench/: its Release build plus
# one 1-second run per workload, each of which must report
# "correct": true), then the whole suite again under AddressSanitizer +
# UBSan, then once more under standalone UBSan (the combined build can
# mask pure-UB findings behind asan's instrumentation, and the
# standalone build runs fast enough to keep). Run from anywhere; paths
# resolve relative to the repository root.
#
#   tools/check.sh            # all passes
#   tools/check.sh --fast     # tier-1 + benchmark smoke (skip the
#                             # sanitizer builds)
#   tools/check.sh --bench    # also run the bench gates (Release+LTO
#                             # build): hot-path (2x + zero-alloc),
#                             # offline solvers (5x + equivalence),
#                             # churn maintenance (5x + schedule
#                             # equality vs the rebuild oracle), the
#                             # trace store (8x compression + 0.5x
#                             # replay + cross-backend equality) and
#                             # the durability layer (<= 5% checkpoint
#                             # overhead + replay-exact recovery) and
#                             # the closed-loop estimator
#                             # (>= 0.5x oracle GC on the steady feed
#                             # regime)

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
fast=0
bench=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    --bench) bench=1 ;;
    *) echo "unknown flag: $arg (expected --fast and/or --bench)" >&2
       exit 2 ;;
  esac
done

echo "== tier-1: default build =="
cmake -B build -S . > /dev/null
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

echo "== end-to-end benchmark smoke: perfbench, every workload =="
# Builds perfbench/ against this tree (a src/ change that breaks it
# fails here, not after merge) and runs each workload once; its
# correctness gate (report fingerprints, durable vs churn runner,
# budget, GC recomputation) must pass.
for workload in proxy_clean sched_dense churn_durable adaptive; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace 0 | tail -n 1 | python3 -c \
      'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] else 1)' \
    || { echo "perfbench $workload: run failed or not correct" >&2; exit 1; }
done

if [[ "$fast" == 1 ]]; then
  echo "== skipped sanitizer passes (--fast) =="
else
  echo "== sanitizer pass: asan + ubsan =="
  cmake --preset asan > /dev/null
  cmake --build --preset asan -j "$jobs"
  (cd build-asan && ctest --output-on-failure -j "$jobs")
  echo "== sanitizer pass: standalone ubsan =="
  cmake --preset ubsan > /dev/null
  cmake --build --preset ubsan -j "$jobs"
  (cd build-ubsan && ctest --output-on-failure -j "$jobs")
  echo "== sanitizer pass: tsan (sweep threads, concurrent proxy runs) =="
  # Only the suite that spawns threads: ExperimentRunner's sweep threads
  # and concurrent RunProxyOnce calls. The full suite under tsan is slow,
  # and the single-threaded tests cannot race.
  cmake --preset tsan > /dev/null
  cmake --build --preset tsan -j "$jobs" --target thread_invariance_test
  (cd build-tsan && ctest --output-on-failure -j "$jobs" -R \
    'thread_invariance_test')
fi

if [[ "$bench" == 1 ]]; then
  echo "== hot-path bench gate: Release + LTO =="
  cmake --preset release > /dev/null
  cmake --build --preset release -j "$jobs" --target bench_hotpath
  ./build-release/bench/bench_hotpath --json=BENCH_hotpath_local.json
  python3 tools/bench_diff.py BENCH_hotpath.json BENCH_hotpath_local.json
  echo "== offline-solver bench gate: Release + LTO =="
  cmake --build --preset release -j "$jobs" --target bench_offline_solvers
  ./build-release/bench/bench_offline_solvers --json=BENCH_offline_local.json
  python3 tools/bench_diff.py BENCH_offline.json BENCH_offline_local.json
  echo "== churn bench gate: Release + LTO =="
  cmake --build --preset release -j "$jobs" --target bench_churn
  ./build-release/bench/bench_churn --json=BENCH_churn_local.json
  python3 tools/bench_diff.py BENCH_churn.json BENCH_churn_local.json
  echo "== trace-store bench gate: Release + LTO =="
  cmake --build --preset release -j "$jobs" --target bench_trace_store
  ./build-release/bench/bench_trace_store --json=BENCH_trace_store_local.json
  python3 tools/bench_diff.py BENCH_trace_store.json BENCH_trace_store_local.json
  echo "== recovery bench gate: Release + LTO =="
  cmake --build --preset release -j "$jobs" --target bench_recovery
  ./build-release/bench/bench_recovery --json=BENCH_recovery_local.json
  python3 tools/bench_diff.py BENCH_recovery.json BENCH_recovery_local.json
  echo "== adaptive estimation bench gate: Release + LTO =="
  cmake --build --preset release -j "$jobs" --target bench_adaptive
  ./build-release/bench/bench_adaptive --json=BENCH_adaptive_local.json
  python3 tools/bench_diff.py BENCH_adaptive.json BENCH_adaptive_local.json
fi

echo "== all checks passed =="
