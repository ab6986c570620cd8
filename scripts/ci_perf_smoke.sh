#!/usr/bin/env bash
# Perf-regression smoke: rebuild Release, regenerate both baselines into a
# temp dir, and compare against the committed BENCH_micro.json /
# BENCH_fig1.json. Fails (exit 1) only on *gross* regressions:
#
#   micro_ops   wall-clock cpu_time per benchmark, threshold 50% — the
#               suite runs on shared CI hosts, so only a blowup (an
#               accidental O(reads) validation loop, a lost fast path)
#               should trip it, not scheduler noise.
#   fig1 suite  every field of every sim-mode point (throughput, abort
#               rate, counters, abort causes), compared EXACTLY in both
#               directions — virtual ticks are deterministic and
#               load-independent, and which words share an orec depends
#               only on their address differences, so the same program
#               gives the same output on any run; a moved field means the
#               program changed.
#   barriers    executed-TM-barrier counters (tm_*_per_op) on the
#               BM_TmirKernelBarriers family, gated EXACTLY: the workloads
#               pin constant control-flow paths, so the counters are
#               deterministic integers and any increase means a pass
#               reintroduced a barrier — a regression nanosecond noise
#               would hide.
#
# When a change moves performance *intentionally*, regenerate the baselines
# with scripts/bench_baseline.sh, commit them alongside the change and say
# in CHANGES.md why they moved.
#
# Usage: scripts/ci_perf_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

for f in BENCH_micro.json BENCH_fig1.json; do
    if [ ! -f "$f" ]; then
        echo "error: committed baseline $f missing (run scripts/bench_baseline.sh)" >&2
        exit 1
    fi
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

scripts/bench_baseline.sh "${tmpdir}"

echo "=== compare against committed baselines ==="
python3 - "${tmpdir}" <<'EOF'
import json
import sys

tmpdir = sys.argv[1]
failures = []

# --- micro_ops: google-benchmark JSON, keyed by benchmark name ---------
MICRO_THRESHOLD = 0.50  # fresh may be up to 50% slower than baseline
# Real-thread scaling benches measure run_threads wall time, which depends
# on the host's core count: cross-topology comparison is meaningless, so
# their times are gated only when baseline and fresh ran on the same
# number of CPUs, and loosely even then (thread scheduling is noisy; the
# hard scaling gate is ci_scale_smoke.sh). Presence is always checked so
# the family cannot silently vanish from the suite.
REAL_PREFIX = "BM_RealThreadScaling"
REAL_THRESHOLD = 1.50
# Executed-barrier counters are deterministic (constant-path workloads,
# single-threaded so no aborted attempts): gate them exactly, not by
# threshold. A fresh count above baseline means a barrier came back.
BARRIER_PREFIX = "BM_TmirKernelBarriers"
COUNTER_KEYS = ("tm_loads_per_op", "tm_stores_per_op", "tm_cmps_per_op",
                "tm_incs_per_op", "tm_barriers_per_op")

def micro_times(path):
    with open(path) as f:
        doc = json.load(f)
    times, real, barriers = {}, {}, {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        if b["name"].startswith(REAL_PREFIX):
            real[b["name"]] = float(b["real_time"])
            continue
        times[b["name"]] = float(b["cpu_time"])
        if b["name"].startswith(BARRIER_PREFIX):
            barriers[b["name"]] = {k: b[k] for k in COUNTER_KEYS if k in b}
    return times, real, barriers, doc.get("context", {}).get("num_cpus")

base, base_real, base_barriers, base_cpus = micro_times("BENCH_micro.json")
fresh, fresh_real, fresh_barriers, fresh_cpus = (
    micro_times(f"{tmpdir}/BENCH_micro.json"))
for name, t0 in sorted(base.items()):
    t1 = fresh.get(name)
    if t1 is None:
        failures.append(f"micro: benchmark disappeared: {name}")
        continue
    if t0 > 0 and (t1 - t0) / t0 > MICRO_THRESHOLD:
        failures.append(
            f"micro: {name}: cpu_time {t0:.1f} -> {t1:.1f} ns "
            f"(+{100*(t1-t0)/t0:.0f}% > {100*MICRO_THRESHOLD:.0f}%)")
if not base_real:
    failures.append("micro: baseline has no real-thread scaling benchmarks "
                    "(regenerate with scripts/bench_baseline.sh)")
for name, t0 in sorted(base_real.items()):
    t1 = fresh_real.get(name)
    if t1 is None:
        failures.append(f"micro: real-thread benchmark disappeared: {name}")
        continue
    if (base_cpus == fresh_cpus and t0 > 0
            and (t1 - t0) / t0 > REAL_THRESHOLD):
        failures.append(
            f"micro: {name}: real_time {t0:.1f} -> {t1:.1f} "
            f"(+{100*(t1-t0)/t0:.0f}% > {100*REAL_THRESHOLD:.0f}% on "
            f"identical {base_cpus}-cpu topology)")

# --- tmir executed-barrier counters: exact gate ------------------------
if not base_barriers:
    failures.append("micro: baseline has no tmir barrier benchmarks "
                    "(regenerate with scripts/bench_baseline.sh)")
for name, c0 in sorted(base_barriers.items()):
    c1 = fresh_barriers.get(name)
    if c1 is None:
        # The disappearance is already reported by the cpu_time sweep.
        continue
    for key in COUNTER_KEYS:
        v0, v1 = c0.get(key), c1.get(key)
        if v0 is None:
            failures.append(
                f"micro: {name}: baseline lacks counter {key} "
                f"(regenerate with scripts/bench_baseline.sh)")
        elif v1 is None:
            failures.append(f"micro: {name}: counter {key} missing")
        elif v1 > v0:
            failures.append(
                f"micro: {name}: {key} regressed {v0:g} -> {v1:g} "
                f"(barrier counts gate exactly)")

# --- fig1: every field of the deterministic sim output, exactly ---------
def fig_fields(path):
    """Every scalar of a fig1 baseline, keyed by where it sits: (figure,
    field), (figure, series, field) and (figure, series, threads, field).
    Nested objects flatten to dotted field names; lists compare whole."""
    with open(path) as f:
        doc = json.load(f)
    out = {}

    def flatten(where, obj, skip, name=""):
        for k, v in obj.items():
            if k == skip:
                continue
            if isinstance(v, dict):
                flatten(where, v, None, f"{name}{k}.")
            else:
                out[where + (f"{name}{k}",)] = v

    for fig in doc["figures"]:
        flatten((fig["figure"],), fig, "series")
        for series in fig["series"]:
            flatten((fig["figure"], series["label"]), series, "points")
            for p in series["points"]:
                flatten((fig["figure"], series["label"], p["threads"]), p,
                        None)
    return out

base = fig_fields("BENCH_fig1.json")
fresh = fig_fields(f"{tmpdir}/BENCH_fig1.json")
moved = []
for key in sorted(base.keys() | fresh.keys(), key=str):
    where = " / ".join(str(k) for k in key[:-1])
    field = key[-1]
    if key not in fresh:
        moved.append(f"fig1: {where}: {field} disappeared "
                     f"(baseline {base[key]!r})")
    elif key not in base:
        moved.append(f"fig1: {where}: {field} is new "
                     f"(fresh {fresh[key]!r})")
    elif base[key] != fresh[key]:
        moved.append(f"fig1: {where}: {field} {base[key]!r} -> "
                     f"{fresh[key]!r}")
if moved:
    failures += moved
    failures.append(
        f"fig1: {len(moved)} field(s) differ from BENCH_fig1.json. The sim "
        "output is a function of the program; if the change means to move "
        "it, regenerate with scripts/bench_baseline.sh and say why in "
        "CHANGES.md")
npoints = sum(len(k) == 4 and k[-1] == "threads" for k in fresh)

if failures:
    print("PERF SMOKE FAILED:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(f"perf smoke OK: {npoints} fig1 points identical, micro suite "
      "within thresholds")
EOF
