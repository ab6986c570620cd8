#!/usr/bin/env python3
"""Parent/change A/B of the real-hardware benchmark, with a verdict per metric.

Usage, from anywhere inside the repository:

    scripts/perfbench_ab.py --parent HEAD~1 --workloads bank-4t \\
        --pairs 10 --seeds 20001 [--trace 0] [--workdir DIR] \\
        [--json-out FILE]

The parent side is `git archive` of --parent, unpacked in --workdir
outside the repository (default: a fresh temporary directory) and reused
there while that commit's tree is unchanged. The change side is the
repository's working tree, uncommitted edits included. Each side runs its
own `perfbench/run.py` for BENCHMARK.json's `run_seconds`; run.py builds
that side's sources, so the two binaries differ only in what the change
changed. The script refuses to run when the working tree has no edit
and no new file over --parent (both sides would be the same code), and
when BENCHMARK.json or the directories it lists under `paths` differ
between the sides.

Pair i runs both sides on seed --seeds + i, and the side that runs first
alternates from pair to pair. With --trace 0 the script judges every
end-to-end metric that BENCHMARK.json declares, per workload:

  gain           at least 10 pairs ran, the change wins at least 9 in 10
                 of them (ties count for neither side) and the medians
                 differ by more than the parent's interquartile range;
  no regression  the change's median is worse than the parent's by no
                 more than the metric's bound;
  unresolved     either side's interquartile range, relative to its
                 median, is wider than the bound, unless every change run
                 reads better than every parent run;
  REGRESSION     the change's median is worse than the bound allows;
  INCORRECT      a run of either side reported "correct": false or failed
                 ops.

With --trace 1 it prints the per-layer metrics' medians without verdicts.
The exit code is 1 when any verdict is REGRESSION or INCORRECT.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"perfbench_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(ref, workdir):
    """Unpack the committed tree of `ref` into workdir/<tree hash>."""
    tree = git("rev-parse", "--verify", f"{ref}^{{tree}}")
    dest = os.path.join(workdir, tree[:12])
    if not os.path.isdir(dest):
        staging = dest + ".tmp"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", tree],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", staging], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            fail(f"git archive {ref} failed")
        os.rename(staging, dest)
    return dest


def benchmark_digest(tree, paths):
    """Hash of BENCHMARK.json and every file under its `paths`."""
    h = hashlib.sha256()
    files = [os.path.join(tree, "BENCHMARK.json")]
    for path in paths:
        for d, subdirs, names in os.walk(os.path.join(tree, path)):
            subdirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, tree).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_side(tree, workload, seed, seconds, trace, log):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=log, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def judge(metric, parent, change, ok):
    """Verdict for one end-to-end metric over paired runs."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]

    def better(a, b):  # a reads better than b
        return a > b if higher else a < b

    pm, cm = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    won = sum(better(c, p) for p, c in zip(parent, change))
    row = {"parent_median": pm, "change_median": cm,
           "delta": (cm - pm) / pm if pm else 0.0,
           "parent_iqr": p3 - p1, "won": won, "pairs": len(parent)}
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    limit = pm * (1 - bound) if higher else pm * (1 + bound)
    if not ok:
        row["verdict"] = "INCORRECT"
    elif len(parent) >= 10 and 10 * won >= 9 * len(parent) and \
            better(cm, pm) and abs(cm - pm) > p3 - p1:
        row["verdict"] = "gain"
    elif spread > bound and \
            not all(better(c, p) for c in change for p in parent):
        row["verdict"] = "unresolved"
    elif better(limit, cm):
        row["verdict"] = "REGRESSION"
    else:
        row["verdict"] = "no regression"
    return row


def same_as_working_tree(ref):
    """True when the working tree holds no edit and no new file over ref."""
    diff = subprocess.run(["git", "-C", ROOT, "diff", "--quiet", ref, "--"])
    return diff.returncode == 0 and \
        not git("ls-files", "--others", "--exclude-standard")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    allowed = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="commit to compare the working tree against")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated, from " + ", ".join(allowed))
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seeds", required=True, type=int,
                    help="seed of the first pair; pair i uses seeds + i")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", help="where the exported trees are built")
    ap.add_argument("--json-out", help="write every run's result here")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in allowed:
            fail(f"unknown workload {w}")
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    if same_as_working_tree(args.parent):
        fail(f"the working tree is the same code as {args.parent}; pass the"
             " commit before the change as --parent")

    workdir = args.workdir or tempfile.mkdtemp(prefix="perfbench_ab.")
    workdir = os.path.abspath(workdir)
    if os.path.commonpath([workdir, ROOT]) == ROOT:
        fail("--workdir must lie outside the repository")
    os.makedirs(workdir, exist_ok=True)
    sides = {"parent": export(args.parent, workdir), "change": ROOT}
    if benchmark_digest(sides["parent"], spec["paths"]) != \
            benchmark_digest(sides["change"], spec["paths"]):
        fail("BENCHMARK.json or its paths differ between parent and change;"
             " a benchmark edit cannot be judged by itself")
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]

    runs = {w: {"parent": [], "change": []} for w in workloads}
    log_path = os.path.join(workdir, "runs.log")
    print(f"# parent {sides['parent']}\n# change {sides['change']}\n"
          f"# build and run logs: {log_path}", flush=True)
    with open(log_path, "a") as log:
        for w in workloads:
            for i in range(args.pairs):
                seed = args.seeds + i
                order = ("parent", "change") if i % 2 == 0 else \
                        ("change", "parent")
                for side in order:
                    res = run_side(sides[side], w, seed, seconds,
                                   args.trace, log)
                    res["seed"] = seed
                    runs[w][side].append(res)
                print(f"# {w} pair {i + 1}/{args.pairs} seed {seed} done",
                      flush=True)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"parent": args.parent, "seconds": seconds,
                       "trace": args.trace, "runs": runs}, fh, indent=1)

    bad = False
    for w in workloads:
        both = runs[w]["parent"] + runs[w]["change"]
        ok = all(r["correct"] and r["failed"] == 0 for r in both)
        print(f"\n### {w}: {args.pairs} pairs, {seconds} s, seeds "
              f"{args.seeds}-{args.seeds + args.pairs - 1}, "
              f"correct {sum(r['correct'] for r in both)}/{len(both)}, "
              f"failed ops {sum(r['failed'] for r in both)}/"
              f"{sum(r['attempted'] for r in both)}\n")
        if args.trace == 0:
            print("| metric | parent median | change median | delta | "
                  "parent IQR | pairs won | verdict |")
            print("|---|---|---|---|---|---|---|")
        else:
            print("| metric | parent median | change median | delta |")
            print("|---|---|---|---|")
        for m in metrics:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in runs[w]["parent"]
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in runs[w]["change"]
                 if name in r["metrics"]]
            if len(p) != args.pairs or len(c) != args.pairs:
                continue  # not reported on this workload
            if args.trace == 1:
                pm, cm = statistics.median(p), statistics.median(c)
                delta = f"{(cm - pm) / pm:+.1%}" if pm else "-"
                print(f"| {name} | {pm:.4g} | {cm:.4g} | {delta} |")
                continue
            row = judge(m, p, c, ok)
            bad = bad or row["verdict"] in ("REGRESSION", "INCORRECT")
            print(f"| {name} | {row['parent_median']:.4g} | "
                  f"{row['change_median']:.4g} | {row['delta']:+.1%} | "
                  f"{row['parent_iqr']:.3g} | {row['won']}/{row['pairs']} | "
                  f"{row['verdict']} |")
        if not ok:
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
