#!/usr/bin/env bash
# One-command PR gate: chains every CI stage in cheapest-first order so a
# broken build fails in seconds, not after the perf suite.
#
#   1. tier-1 ctest        (Release build, the top-level CMakeLists.txt
#                           default: functional + conformance suites,
#                           including the adversarial-schedule litmus suite)
#   2. ci_lint.sh          (clang-tidy over src/, skipped if not installed)
#   3. ci_sanitize.sh      (ASan/UBSan over the full suite)
#   4. ci_tsan.sh          (TSan over the real-thread tests; self-skipping
#                           when the toolchain has no TSan runtime)
#   5. ci_obs_smoke.sh     (one observed fig1 run on the tier-1 build:
#                           drop-free trace, attributed aborts, JSON-lines
#                           metrics schema, hot sites, tm_top exit codes)
#   6. ci_perf_smoke.sh    (Release rebuild vs committed perf baselines)
#   7. ci_scale_smoke.sh   (real-thread commit-path scaling gate at 1/2/4
#                           threads; self-skipping on hosts with <4 cores —
#                           runs last so it can reuse build-bench from 6)
#
# Usage: scripts/ci_all.sh
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc)"

echo "=== [1/7] build + tier-1 ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}" >/dev/null
ctest --test-dir build --output-on-failure

echo "=== [2/7] static analysis ==="
scripts/ci_lint.sh

echo "=== [3/7] address sanitizer ==="
scripts/ci_sanitize.sh

echo "=== [4/7] thread sanitizer ==="
scripts/ci_tsan.sh

echo "=== [5/7] observability smoke ==="
scripts/ci_obs_smoke.sh

echo "=== [6/7] perf smoke ==="
scripts/ci_perf_smoke.sh

echo "=== [7/7] real-thread scaling smoke ==="
scripts/ci_scale_smoke.sh

echo "ci_all: all stages passed"
