#!/usr/bin/env bash
# Observability CI on the tier-1 build (configure build/ first, as
# ci_all.sh stage 1 does): one hot-skewed fig1 bank run with --trace,
# --metrics-out and --json-out, whose outputs must show
#
#   - summary: trace_dropped == 0 on every point, nonzero commit latency
#     percentiles, and on every contended point at least one hot site,
#     ranked by descending total;
#   - Chrome trace: strict JSON, at least one event for every logical
#     thread of a run, no abort attributed to cause "unknown";
#   - metrics JSON-lines: every line parses, required fields, per-window
#     accounting, declared counts match, hot sites ranked 1..N;
#   - tm_top exit codes: 0 on the real file, 1 on a schema-invalid file,
#     2 on a missing file or a missing --in.
#
# Usage: scripts/ci_obs_smoke.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"
out=build/obs_smoke

cmake --build build -j "${jobs}" --target fig1_bank tm_top
mkdir -p "${out}"

echo "=== observed benchmark run ==="
build/bench/fig1_bank --threads 2,4 --ops 300 --hot-accounts 2 --hot-pct 90 \
    --trace "${out}/trace.json" --metrics-out "${out}/metrics.jsonl" \
    --json-out "${out}/summary.json" > "${out}/bank.out"
grep -E '^# (trace|metrics)' "${out}/bank.out"

echo "=== output validation ==="
python3 - "${out}" <<'EOF'
import collections
import json
import sys

out = sys.argv[1]

# Bench summary: drop-free rings, latencies and ranked hot sites.
with open(f"{out}/summary.json") as f:
    doc = json.load(f)
assert doc["units"] == "ticks", "sim-mode bench must report tick units"
points = [(s["label"], p) for s in doc["series"] for p in s["points"]]
assert points, "bench summary contains no points"
contended = 0
for label, p in points:
    where = f"{label}/{p['threads']}t"
    assert p["trace_dropped"] == 0, f"{where}: trace ring dropped events"
    assert p["commit_p50"] > 0 and p["commit_p99"] > 0, \
        f"{where}: observed run reports no commit latency"
    if p["aborts"] == 0:
        continue  # an uncontended point records no conflict site
    totals = [s["total"] for s in p["hot_sites"]]
    assert totals, f"{where}: {p['aborts']} aborts but no hot site"
    assert totals == sorted(totals, reverse=True), \
        f"{where}: hot sites not ranked by descending total"
    contended += 1
assert contended > 0, "no contended point found (rig produced no aborts)"
print(f"OK summary: {len(points)} points, {contended} contended")

# Chrome trace: every thread announced by thread_name metadata has events,
# and every abort carries a real cause.
with open(f"{out}/trace.json") as f:
    events = json.load(f)["traceEvents"]
assert events, "trace contains no events"
threads = set()
per_thread = collections.Counter()
aborts = 0
for e in events:
    key = (e["pid"], e["tid"])
    if e["ph"] == "M":
        if e["name"] == "thread_name":
            threads.add(key)
        continue
    per_thread[key] += 1
    if e["name"] == "abort":
        aborts += 1
        assert e["args"]["cause"] != "unknown", f"unattributed abort: {e}"
assert threads, "no thread_name metadata emitted"
missing = [t for t in sorted(threads) if per_thread[t] == 0]
assert not missing, f"threads with zero events: {missing}"
print(f"OK trace: {sum(per_thread.values())} events over {len(threads)} "
      f"threads, {aborts} aborts, all attributed")

# Metrics JSON-lines schema.
FIELDS = {
    "run": ("label", "units", "window_ticks", "threads", "windows",
            "hot_sites", "conflict_overflow"),
    "window": ("run", "window", "t0", "t1", "starts", "commits", "aborts",
               "abort_pct", "throughput", "commit_p50", "commit_p99",
               "causes"),
    "hot_site": ("run", "rank", "addr", "orec", "total", "edges",
                 "top_cause", "causes"),
}
lines = collections.defaultdict(list)  # type -> objects
with open(f"{out}/metrics.jsonl") as f:
    for n, line in enumerate(f, 1):
        obj = json.loads(line)  # every line must parse on its own
        kind = obj["type"]
        assert kind in FIELDS, f"line {n}: unknown type {kind!r}"
        for field in FIELDS[kind]:
            assert field in obj, f"line {n}: {kind} missing {field!r}"
        assert kind == "run" or lines["run"], \
            f"line {n}: {kind} before any run line"
        if kind == "run":
            assert obj["units"] in ("ticks", "ns"), f"line {n}: bad units"
        elif kind == "window":
            assert obj["t1"] > obj["t0"], f"line {n}: empty window span"
            assert obj["starts"] >= obj["commits"] + obj["aborts"], \
                f"line {n}: starts < commits + aborts"
            assert sum(obj["causes"].values()) == obj["aborts"], \
                f"line {n}: cause mix does not sum to aborts"
        else:
            assert obj["total"] > 0, f"line {n}: empty hot site recorded"
        lines[kind].append(obj)
runs = lines["run"]
assert runs, "no run lines emitted"
for run in runs:
    label = run["label"]
    w = [o["window"] for o in lines["window"] if o["run"] == label]
    h = [o for o in lines["hot_site"] if o["run"] == label]
    assert len(w) == run["windows"], \
        f"{label}: declared {run['windows']} windows, found {len(w)}"
    assert len(h) == run["hot_sites"], \
        f"{label}: declared {run['hot_sites']} hot sites, found {len(h)}"
    assert w == sorted(set(w)), f"{label}: windows not strictly increasing"
    assert [o["rank"] for o in h] == list(range(1, len(h) + 1)), \
        f"{label}: hot-site ranks not 1..N"
    totals = [o["total"] for o in h]
    assert totals == sorted(totals, reverse=True), \
        f"{label}: hot sites not ranked by descending total"
assert any(r["windows"] > 0 for r in runs), "no run produced any window"
print(f"OK metrics: {len(runs)} runs, {len(lines['window'])} windows, "
      f"{len(lines['hot_site'])} hot sites")
EOF

echo "=== tm_top exit-status contract ==="
tm_top=build/examples/tm_top
"${tm_top}" --in "${out}/metrics.jsonl" > "${out}/tm_top.out"
test -s "${out}/tm_top.out"
head -n 4 "${out}/tm_top.out"
expect_rc() {  # expect_rc <code> <what> <command...>
    local want=$1 what=$2 rc=0
    shift 2
    "$@" 2>/dev/null || rc=$?
    [ "${rc}" -eq "${want}" ] || { echo "${what}: want exit ${want}, got ${rc}"; exit 1; }
}
expect_rc 2 "missing file" "${tm_top}" --in "${out}/no_such.jsonl"
expect_rc 2 "missing --in" "${tm_top}"
echo '{"type":"window","window":0}' > "${out}/invalid.jsonl"
expect_rc 1 "invalid file" "${tm_top}" --in "${out}/invalid.jsonl"

echo "=== observability smoke passed ==="
