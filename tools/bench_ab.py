"""Interleaved A/B runs of the benchmark: the commit at HEAD against a base revision.

    python3 tools/bench_ab.py --base REV --pairs 10
    python3 tools/bench_ab.py --pairs 10    # HEAD alone: its trajectory

Extracts the ``src``, ``perfbench`` and ``BENCHMARK.json`` of REV and of HEAD
with ``git archive`` into two directories of one temporary directory, as
``tools/output_digests.py --src``'s recipe does, so both sides run from a fresh
tree. The output is named after HEAD, so the tool refuses to start while those
paths hold uncommitted changes. Then, for each workload of BENCHMARK.json, it
runs ``perfbench/run.py --trace 0`` N times on each tree: pair i runs both
trees on seed i for BENCHMARK.json's ``run_seconds``, the tree that goes first
drawn at random. Around each run it reads
``resource.getrusage(RUSAGE_CHILDREN).ru_minflt``, so the minor page faults
per attempted operation show which heap mode a run was in: glibc trimming the
heap costs about 1,400 faults per ``sequential_dense`` operation, against
almost none without it. The count includes the run's start-up and its timed
set-ups, tens of faults per operation in a full-length run.

It writes ``BENCH_<short HEAD sha>.json`` at the repository root, rewritten
after each workload. Per workload and tree: the median and IQR of each
end-to-end metric, the faults per operation, and the operations attempted and
failed. Per metric: the pairs the head tree won, the median of the pairwise
ratios, the change of the medians beside the metric's bound, and
``gain_rule_met``: the head tree won at least 9/10 of the pairs and its median
is better than the base's by more than the base's IQR. With them go the seeds,
the first tree of each pair, both SHAs and the versions: the run record's
Python, numpy, BLAS, CPU count, BLAS thread pin and CPU affinity, and, from
this tool's environment, which the runs inherit, every ``MALLOC_*`` variable
and ``PYTHONDONTWRITEBYTECODE`` and ``PYTHONPYCACHEPREFIX`` (null when unset):
where no bytecode is written, every run compiles paintkit from its sources,
and its peak RSS follows their size.

Without ``--base`` it runs HEAD alone, on seeds 0 to N-1, and writes
``TRAJECTORY_<short HEAD sha>.json``: the same record with only the head tree,
so a series of commits can be read one point each, with no pairs and no
comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
VERSION_KEYS = ("python", "numpy", "blas", "nproc", "blas_threads_pinned", "affinity_cpus")
BYTECODE_KEYS = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def git(*args):
    """The exit code and stripped output of `git args` in this checkout."""
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError as exc:  # no git
        return 1, str(exc)
    return proc.returncode, proc.stdout.strip()


def resolve(rev):
    """The full SHA of the commit `rev` names; exits when it names none."""
    code, sha = git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    if code != 0 or not sha:
        raise SystemExit(f"error: {rev!r} does not resolve to a commit")
    return sha


def extract(sha, tree):
    """Extract the benchmark and the sources of commit `sha` into the new
    directory `tree`."""
    archive = tree + ".tar"
    os.makedirs(tree)
    for command in (["git", "archive", "-o", archive, sha, "src", "perfbench", "BENCHMARK.json"],
                    ["tar", "-x", "-f", archive, "-C", tree]):
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: {' '.join(command)}: {proc.stderr.strip()}")
    os.remove(archive)
    return tree


def run_once(tree, workload, seed, seconds):
    """One benchmark run on `tree`: its result and run record, and the minor
    page faults of the run and everything it waited for."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        (record,) = [json.loads(line[len("run record: "):]) for line in lines
                     if line.startswith("run record: ")]
    except (IndexError, ValueError):
        raise SystemExit(f"error: {workload} seed {seed} on {tree} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}") from None
    return {
        "seed": seed,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "minflt_per_op": minflt / result["attempted"],
        "versions": {**{key: record.get(key) for key in VERSION_KEYS},
                     **{key: os.environ.get(key) for key in BYTECODE_KEYS},
                     **{key: value for key, value in os.environ.items()
                        if key.startswith("MALLOC_")}},
        "source_sha256": record.get("source_sha256"),
    }


def spread(values):
    """Median and interquartile range of `values`."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def reduce_workload(pairs, end_to_end):
    """Summarize one workload's pairs, each {"first": side, "base": run,
    "head": run}, for the BENCHMARK.json `end_to_end` metrics. Pairs with no
    "base" run are HEAD's runs alone: they are summarized, not compared."""
    sides = [side for side in SIDES if side in pairs[0]]
    out = {"seeds": [p["head"]["seed"] for p in pairs]}
    for side in sides:
        runs = [p[side] for p in pairs]
        out[side] = {
            "metrics": {m["name"]: spread([r["metrics"][m["name"]] for r in runs])
                        for m in end_to_end},
            "minflt_per_op": spread([r["minflt_per_op"] for r in runs]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "source_sha256": sorted({r["source_sha256"] for r in runs}),
        }
    if sides == ["head"]:
        return out
    out["first"] = [p["first"] for p in pairs]
    compare = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        medians = [out[side]["metrics"][name]["median"] for side in SIDES]
        change = medians[1] / medians[0] - 1
        worse_by = change if lower else -change
        head_won = sum(h < b if lower else h > b for h, b in zip(head, base))
        base_won = sum(b < h if lower else b > h for h, b in zip(head, base))
        gain = medians[0] - medians[1] if lower else medians[1] - medians[0]
        compare[name] = {
            "better": m["better"],
            "bound": m["bound"],
            "change": change,
            "within_bound": worse_by <= m["bound"],
            "median_pair_ratio": statistics.median(h / b for h, b in zip(head, base)),
            "head_won": head_won,
            "base_won": base_won,
            "ties": len(pairs) - head_won - base_won,  # pairs neither side won
            "pairs": len(pairs),
            "gain_rule_met": (10 * head_won >= 9 * len(pairs)
                              and gain > out["base"]["metrics"][name]["iqr"]),
        }
    out["compare"] = compare
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the revision to compare against; "
                        "without it, HEAD runs alone")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload; without --base, runs of HEAD")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = SIDES if args.base else ("head",)
    shas = {side: resolve(args.base if side == "base" else "HEAD") for side in sides}
    _, dirty = git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json")
    if dirty:
        raise SystemExit(f"error: uncommitted changes; HEAD is run as committed:\n{dirty}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    name = "BENCH" if args.base else "TRAJECTORY"
    out_path = os.path.join(ROOT, f"{name}_{shas['head'][:7]}.json")
    report = {
        "head": {"sha": shas["head"]},
        "pairs": args.pairs,
        "seconds": bench["run_seconds"],
        "workloads": {},
    }
    if args.base:
        report["base"] = {"rev": args.base, "sha": shas["base"]}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        trees = {side: extract(shas[side], os.path.join(tmp, side)) for side in sides}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for seed in range(args.pairs):
                first = random.choice(sides)
                pair = {"first": first}
                for side in (first, *(s for s in sides if s != first)):
                    pair[side] = run_once(trees[side], workload, seed, bench["run_seconds"])
                    print(f"{workload} seed {seed} {side}: patch_s "
                          f"{pair[side]['metrics']['patch_s']:.4f} minflt/op "
                          f"{pair[side]['minflt_per_op']:.0f}", file=sys.stderr)
                pairs.append(pair)
            report["versions"] = pairs[0]["head"]["versions"]
            report["workloads"][workload] = reduce_workload(pairs, bench["end_to_end"])
            with open(out_path, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
                f.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
