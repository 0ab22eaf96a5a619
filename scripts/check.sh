#!/usr/bin/env bash
# Full verification sweep: the tier-1 suite on the release build plus the
# sanitizer presets over the concurrency/robustness suites (the fault-injected
# stress tests in tests/core/dse_parallel_test.cpp are written to run under
# TSan; the journal's raw-fd I/O and report corruption paths under ASan).
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the sanitizer presets (release build + ctest only)
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

jobs="$(nproc 2>/dev/null || echo 2)"

echo "== tier-1: release build (-Wall -Wextra -Werror) + full ctest =="
cmake --preset default -DDOVADO_WERROR=ON
cmake --build --preset default -j "$jobs"
ctest --preset default -j "$jobs" --timeout 600

echo "== perfbench: the benchmark driver (dovado_e2e) compiles =="
# perfbench/ is a separate CMake project over ../src; nothing above builds
# it, so an src/ API change that breaks the benchmark would pass otherwise.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench --target dovado_e2e -j "$jobs"

echo "== lint: clang-tidy (skipped when not installed) =="
scripts/lint.sh build

echo "== static concurrency contracts: clang -Wthread-safety (skipped when not installed) =="
scripts/thread_safety.sh

echo "== bench gate: sync wrapper overhead (bench/sync_overhead.json) =="
# Exits non-zero when the bar is missed: util::Mutex/MutexLock must add
# < 1% over raw std::mutex on the uncontended path in release builds.
build/bench/micro_sync_overhead

echo "== bench gate: steady-state fleet utilization (BENCH_utilization.json) =="
# Exits non-zero when the bar is missed: steady > 90%, batch < 70%,
# steady hypervolume >= batch at the shared tool-second budget.
build/bench/micro_steady_state_utilization

echo "== bench gate: evaluation-store warm start (BENCH_warmstart.json) =="
# Exits non-zero when the bar is missed: warm hypervolume >= cold at the
# shared budget, store-lookup overhead on a store-miss campaign < 1%.
build/bench/micro_warmstart

echo "== bench gate: optimizer portfolio ablation (BENCH_portfolio.json) =="
# Exits non-zero when the bar is missed: on every rtl/ design the bandit
# portfolio's hypervolume >= the best single searcher at the shared budget.
build/bench/micro_portfolio

echo "== bench gate: multi-tenant service request-path overhead (bench/serve_overhead.json) =="
# Exits non-zero when the bar is missed: admission + DRR scheduling +
# dispatch bookkeeping must add < 1% to a fresh evaluation.
build/bench/micro_serve_overhead

echo "== serve suite: protocol/admission/fairness/drain + socket e2e =="
# Also part of the full ctest run above; repeated as its own leg so a
# service regression fails loudly with the serve suite's own output.
ctest --preset default -j "$jobs" --timeout 600 -R '^test_serve$'

echo "== store crash suite: SIGKILL drills + corruption corpus =="
# Also part of the full ctest run above; repeated as its own leg so a
# durability regression fails loudly with the store suite's own output.
ctest --preset default -j "$jobs" --timeout 600 -R '^test_store$'

if [[ "$fast" == "1" ]]; then
  echo "== --fast: skipping sanitizer presets =="
  exit 0
fi

echo "== deadlock: runtime lock-order detector suite (DOVADO_DEADLOCK_DEBUG) =="
cmake --preset deadlock
cmake --build --preset deadlock -j "$jobs"
ctest --preset deadlock -j "$jobs" --timeout 600

echo "== tsan: fault-injected concurrency suite =="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs" --target test_core test_util test_store test_serve test_opt test_analysis
ctest --preset tsan-parallel -j "$jobs" --timeout 600

echo "== asan: full suite (incl. store crash drills over raw-fd I/O) =="
cmake --preset asan
cmake --build --preset asan -j "$jobs"
ctest --preset asan -j "$jobs" --timeout 600

echo "== ubsan: full suite =="
cmake --preset ubsan
cmake --build --preset ubsan -j "$jobs"
ctest --preset ubsan -j "$jobs" --timeout 600

echo "== all checks passed =="
