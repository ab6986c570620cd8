#!/usr/bin/env bash
# Perf-regression smoke: rebuild Release, regenerate both baselines into a
# temp dir, and compare against the committed BENCH_micro.json /
# BENCH_fig1.json. Fails (exit 1) only on *gross* regressions:
#
#   micro_ops   wall-clock cpu_time per benchmark, threshold 50% — the
#               suite runs on shared CI hosts, so only a blowup (an
#               accidental O(reads) validation loop, a lost fast path)
#               should trip it, not scheduler noise.
#   fig1 suite  sim-mode commits/Mtick per (figure, series, threads),
#               threshold 30% — virtual ticks are deterministic and
#               load-independent, so anything beyond small cost-model
#               drift is a real hot-path regression.
#   barriers    executed-TM-barrier counters (tm_*_per_op) on the
#               BM_TmirKernelBarriers family, gated EXACTLY: the workloads
#               pin constant control-flow paths, so the counters are
#               deterministic integers and any increase means a pass
#               reintroduced a barrier — a regression nanosecond noise
#               would hide.
#
# When a PR moves performance *intentionally*, regenerate the baselines
# with scripts/bench_baseline.sh and commit them alongside the change.
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

# --- fig1: deterministic sim throughput per (figure, series, threads) --
FIG_THRESHOLD = 0.30  # fresh throughput may be at most 30% below baseline

def fig_points(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for fig in doc["figures"]:
        # Schema guard for the commit-scalability fields: every figure
        # carries its execution mode, every point its scaling factor and
        # the GV4 clock counter, in both execution modes.
        if "mode" not in fig:
            failures.append(f"fig1: {path}: figure missing 'mode' field")
        for series in fig["series"]:
            for p in series["points"]:
                for field in ("speedup", "clock_adoptions"):
                    if field not in p:
                        failures.append(
                            f"fig1: {path}: point missing '{field}' field")
                key = (fig["figure"], series["label"], p["threads"])
                out[key] = float(p["metric"])
    return out

base = fig_points("BENCH_fig1.json")
fresh = fig_points(f"{tmpdir}/BENCH_fig1.json")
for key, m0 in sorted(base.items()):
    m1 = fresh.get(key)
    if m1 is None:
        failures.append(f"fig1: point disappeared: {key}")
        continue
    if m0 > 0 and (m0 - m1) / m0 > FIG_THRESHOLD:
        failures.append(
            f"fig1: {key}: throughput {m0:.1f} -> {m1:.1f} commits/Mtick "
            f"(-{100*(m0-m1)/m0:.0f}% > {100*FIG_THRESHOLD:.0f}%)")

if failures:
    print("PERF SMOKE FAILED:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(f"perf smoke OK: {len(fresh)} fig1 points and micro suite within thresholds")
EOF
