#!/usr/bin/env bash
# Static-analysis gate, two stages:
#
#   1. tmir_lint — the repo's own IR pipeline checker (verify + tm_lint
#      over every built-in kernel, after every stage of
#      tm_rbe -> tm_mark -> tm_optimize). Always runs: it is built from
#      this tree and needs no external tooling. Any diagnostic fails the
#      stage (tmir_lint exits 2), and the --json report must parse.
#
#   2. clang-tidy over the library sources, driven by the .clang-tidy
#      profile at the repo root and the compile database the normal build
#      exports (CMAKE_EXPORT_COMPILE_COMMANDS is always on). clang-tidy
#      is optional tooling: containers without it must not fail CI, so
#      this stage degrades to a loud skip instead of installing anything.
#
# Usage: scripts/ci_lint.sh [extra clang-tidy args...]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc)"

# --- stage 1: tmir_lint ----------------------------------------------------

if [[ ! -x build/examples/tmir_lint ]]; then
  echo "ci_lint: building tmir_lint"
  cmake -B build -S . >/dev/null
  cmake --build build --target tmir_lint -j "${jobs}" >/dev/null
fi

echo "ci_lint: tmir_lint over all built-in kernels"
build/examples/tmir_lint

# The machine-readable report CI consumers parse must stay valid JSON.
build/examples/tmir_lint --json | python3 -c 'import json,sys; json.load(sys.stdin)'
echo "ci_lint: tmir_lint clean (text + json)"

# --- stage 2: clang-tidy ---------------------------------------------------

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "ci_lint: clang-tidy not installed; skipping (stage passes vacuously)"
  exit 0
fi

# The compile database comes from the regular build tree; configure if it
# is not there yet (first run on a fresh checkout).
if [[ ! -f build/compile_commands.json ]]; then
  cmake -B build -S . >/dev/null
fi

mapfile -t sources < <(git ls-files 'src/**/*.cpp' 'src/*.cpp')
if [[ ${#sources[@]} -eq 0 ]]; then
  echo "ci_lint: no sources found" >&2
  exit 1
fi

echo "ci_lint: clang-tidy over ${#sources[@]} files (${jobs} jobs)"
printf '%s\n' "${sources[@]}" |
  xargs -P "${jobs}" -n 4 clang-tidy -p build --quiet "$@"
echo "ci_lint: clean"
