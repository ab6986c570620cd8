#!/usr/bin/env bash
# Produce the committed performance baselines:
#
#   BENCH_micro.json  — google-benchmark JSON from bench/micro_ops
#                       (wall-clock per-op costs of the hot paths)
#   BENCH_fig1.json   — one merged document with the "# JSON" summary of
#                       every fig1 benchmark in deterministic sim mode
#                       (virtual-tick metrics: load-independent and the
#                       same on every run of the same program, so CI
#                       compares them exactly)
#
# Run from a quiet machine and commit the two files whenever a PR
# intentionally moves performance. scripts/ci_perf_smoke.sh compares a
# fresh run against these baselines.
#
# Usage: scripts/bench_baseline.sh [outdir]   (default: repo root)
set -euo pipefail

cd "$(dirname "$0")/.."
outdir="${1:-.}"
build_dir=build-bench
jobs="$(nproc)"

echo "=== Release build ==="
cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" -j "${jobs}" --target micro_ops \
    fig1_bank fig1_hashtable fig1_lru fig1_kmeans \
    fig1_vacation fig1_labyrinth fig1_yada >/dev/null

echo "=== micro_ops -> ${outdir}/BENCH_micro.json ==="
"${build_dir}/bench/micro_ops" \
    --json-out="${outdir}/BENCH_micro.json" \
    --benchmark_min_time=0.2 >/dev/null

echo "=== fig1 suite (sim mode) -> ${outdir}/BENCH_fig1.json ==="
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT
figures=(bank hashtable lru kmeans vacation labyrinth yada)
for fig in "${figures[@]}"; do
    echo "  fig1_${fig}"
    "${build_dir}/bench/fig1_${fig}" \
        --threads 1,2,4 --ops 2000 \
        --json-out "${tmpdir}/${fig}.json" >/dev/null
done

{
    printf '{"schema":"semstm-fig1-baseline-v1","figures":[\n'
    first=1
    for fig in "${figures[@]}"; do
        [ "${first}" = 1 ] || printf ',\n'
        first=0
        # each per-figure file is a single JSON object on one line
        tr -d '\n' < "${tmpdir}/${fig}.json"
    done
    printf '\n]}\n'
} > "${outdir}/BENCH_fig1.json"

python3 -c "import json,sys; json.load(open(sys.argv[1])); json.load(open(sys.argv[2]))" \
    "${outdir}/BENCH_micro.json" "${outdir}/BENCH_fig1.json"
echo "baselines written: ${outdir}/BENCH_micro.json ${outdir}/BENCH_fig1.json"
