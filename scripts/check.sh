#!/usr/bin/env bash
# Build and run the full test suite in the default configuration plus the
# Address-, UndefinedBehavior- and ThreadSanitizer configurations, so the
# sanitizer suites actually gate changes instead of rotting. This is the
# command CI (and any PR author) should run before merging:
#
#   scripts/check.sh            # all configs
#   scripts/check.sh --fast     # default config only
#
# Build trees: build/ (default, warnings are errors), build-asan/
# (ECODB_SANITIZE=address, asserts on), build-ubsan/
# (ECODB_SANITIZE=undefined) and build-tsan/ (ECODB_SANITIZE=thread,
# morsel-parallel suites only).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

run_config() {
  local dir="$1"
  shift
  echo "=== configure: ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@"
  echo "=== build: ${dir} ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ctest: ${dir} ==="
  (cd "${dir}" && ctest --output-on-failure --timeout 120 -j "${JOBS}")
}

# The default leg treats warnings as errors, so a new warning fails CI.
run_config build -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

# Second leg of the default suite with the SIMD kernels forced onto their
# scalar fallbacks (runtime env override — no rebuild). The kernels
# promise bit-identical results either way; running the whole suite —
# goldens, parity fuzz, energy parity — under ECODB_SIMD=off is what
# makes that promise load-bearing.
echo "=== ctest: build (ECODB_SIMD=off scalar fallback) ==="
(cd build && ECODB_SIMD=off ctest --output-on-failure --timeout 120 -j "${JOBS}")

# Bench binaries have no CTest coverage; a tiny-scale smoke run of every
# one keeps them from silently rotting between BENCH_*.json
# regenerations. The QED benches (fig6_qed, ablation_qed_*) also exit
# non-zero when a split or shared-scan answer differs from running the
# member queries one by one.
for src in bench/*.cc; do
  b="$(basename "${src}" .cc)"
  echo "=== bench smoke: ${b} --sf=0.001 ==="
  "./build/bench/${b}" --sf=0.001 > /dev/null
done

# Worker-count parity smoke: the fuzz harness checks answers against the
# reference evaluator and holds the morsel-parallel engine bit-exact
# against the sequential one at 1, 2 and 8 workers (the default suite run
# above covers 3). A worker count of 1 exercises the clamp path; 8
# oversubscribes the 2-core model.
echo "=== workers parity smoke: 1/2/8 workers x 24 plans ==="
for w in 1 2 8; do
  ECODB_FUZZ_WORKERS="${w}" ECODB_FUZZ_PLANS=24 \
    ./build/batch_parity_fuzz_test --gtest_brief=1
done

if [[ "${FAST}" == "0" ]]; then
  # The ASan leg builds with asserts on: the default RelWithDebInfo flags
  # carry -DNDEBUG, which compiles every assert out of the other legs.
  run_config build-asan -DECODB_SANITIZE=address \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g"
  # Fault-injection fuzz smoke under ASan: a short random fault-schedule
  # sweep on top of the suite's default run, so the retry/cancel teardown
  # paths get a leak-checked pass with a second seed base.
  echo "=== fault fuzz smoke (asan): 50 fault schedules ==="
  ECODB_GOVFUZZ_SEED=0xFA57 ECODB_GOVFUZZ_PLANS=0 ECODB_GOVFUZZ_FAULT_PLANS=50 \
    ./build-asan/governor_fuzz_test --gtest_filter='GovernorFaultFuzzTest.*'
  # Scheduler fuzz smoke under ASan with a second seed base: admission,
  # QED merge/split, retry and breaker teardown paths get a leak-checked
  # pass beyond the suite's default seeds.
  echo "=== scheduler fuzz smoke (asan): 8 configs ==="
  ECODB_SCHEDFUZZ_SEED=0x5A5A ECODB_SCHEDFUZZ_ITERS=8 \
    ./build-asan/scheduler_fuzz_test
  # Dict-path parity fuzz smoke under ASan with a second seed base: the
  # fuzzer's dict-string predicates, IN-lists and string group-bys drive
  # the code-lane / memo / decode paths, so this leg leak-checks the
  # dictionary hot paths specifically (borrowed dict-entry pointers,
  # lane handoffs, memo teardown).
  echo "=== dict parity fuzz smoke (asan): 24 plans ==="
  ECODB_FUZZ_SEED=0xD1C7 ECODB_FUZZ_PLANS=24 \
    ./build-asan/batch_parity_fuzz_test --gtest_brief=1
  # Breaker-root parity corpus under ASan with a second seed base: a
  # sort holds raw pointers into table arrays (the table rows it keeps in
  # place of the scan's cells) and gathers from them after the scan has
  # closed, into batches and straight into results, so every sort-root
  # and aggregate-root emission path gets a bounds-checked pass beyond
  # the suite's default seeds.
  echo "=== breaker-root parity fuzz smoke (asan): 48 plans ==="
  ECODB_FUZZ_SEED=0x50F7 ECODB_FUZZ_PLANS=48 \
    ./build-asan/batch_parity_fuzz_test --gtest_brief=1 \
    --gtest_filter='BatchParityFuzzTest.BreakerRootPlansMatch'
  # Planner property test under ASan (asserts on) with a second seed base:
  # join inputs are projected to the columns read above them, so join
  # keys and layouts index the kept columns; a wrong index reads past a
  # lane, which the bounds checks and lane-type asserts catch here.
  echo "=== planner property test (asan): second seed ==="
  ECODB_FUZZ_SEED=0x9F1E ./build-asan/planner_property_test --gtest_brief=1
  run_config build-ubsan -DECODB_SANITIZE=undefined
  # Normalized sort keys under UBSan with a second seed: the encoder's
  # sign flips and word inversions at INT64_MIN / INT64_MAX and its
  # double bit casts get a second set of random key columns beyond the
  # suite's default seed.
  echo "=== sort-key property test (ubsan): second seed ==="
  ECODB_FUZZ_SEED=0x0B5E ./build-ubsan/sort_keys_test --gtest_brief=1
  # Planner property test under UBSan with a second seed: another set of
  # random join graphs through the subset enumeration's bit masks and the
  # cost model's cardinality arithmetic.
  echo "=== planner property test (ubsan): second seed ==="
  ECODB_FUZZ_SEED=0x9A77 ./build-ubsan/planner_property_test --gtest_brief=1
  # ThreadSanitizer leg: build once, then run only the suites that spawn
  # morsel workers (the rest of the suite is single-threaded and already
  # covered by the ASan/UBSan legs — a full TSan ctest would double the
  # wall time for no extra interleavings).
  echo "=== configure/build: build-tsan (ECODB_SANITIZE=thread) ==="
  cmake -B build-tsan -S . -DECODB_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}"
  echo "=== tsan: bounded_queue_test ==="
  ./build-tsan/bounded_queue_test
  echo "=== tsan: parallel_exec_test (incl. pipeline-breaker suites) ==="
  ./build-tsan/parallel_exec_test
  # Both fuzz corpora run here: the mixed-plan corpus and the breaker-root
  # corpus (every plan ends in an agg/sort/build breaker), each at 8
  # workers so the breaker coordinator/worker handoffs get oversubscribed
  # interleavings under TSan — including the parallel sort's worker-local
  # normalized-key sorts and the coordinator's encoded k-way merge (48
  # plans per corpus reach merges of two runs; 24 reached one-run merges
  # only).
  echo "=== tsan: batch_parity_fuzz_test (8 workers x 48 plans/corpus) ==="
  ECODB_FUZZ_WORKERS=8 ECODB_FUZZ_PLANS=48 \
    ./build-tsan/batch_parity_fuzz_test --gtest_brief=1
fi

echo "=== all checks passed ==="
