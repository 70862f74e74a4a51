"""paintkit benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload cli_single --seed 0 --seconds 52 --trace 0

The load is closed-loop: one caller in one process, each patch operation
starting when the previous one has been checked. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` they are the per-layer metrics, from
operations that alternate between traced and untraced so that the tracing
overhead is measured in the same run. A run record (versions, thread pins,
per-operation times) goes to ``.perfbench_out/`` and, as one line, to
standard output just before the result; traced runs also write their spans
there.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_THREADS = "1"
SETUP_REPS = 9
SETUP_TIMEOUT = 120
TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def import_paintkit():
    """Pin BLAS to one thread, leave paintkit's own thread cap at its
    library default, then import paintkit (and numpy) from the sources."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("PAINTKIT_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "paintkit", "__init__.py")):
        sys.exit(f"error: no paintkit sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import paintkit

    if os.path.dirname(os.path.abspath(paintkit.__file__)) != os.path.join(SRC, "paintkit"):
        sys.exit(f"error: imported paintkit from {paintkit.__file__}, not {SRC}")


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_setup(args, rep, work):
    """Time one set-up in a fresh Python process, as cold as a user's first
    command, and return its seconds."""
    rep_dir = os.path.join(work, f"setup-rep{rep}")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-rep", rep_dir],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up {rep} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def fastest(times):
    """One operation's time with the host's interference left out: the
    fastest of the run. On a shared host a neighbour slows operations by up
    to 1.7x in phases from a fraction of a second to over a minute, so the
    median or mean of a run reads how long the neighbour was busy; the
    fastest operation, from a moment it was not, reads the program."""
    return min(times)


def tail(times):
    """The highest of a few percentiles with at least TAIL_BEYOND samples
    beyond it, as (percentile, value), or None when no such one exists."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        rank = -(-pct * n // 100)  # nearest rank
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return None


def run_record(args, measured):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a checkout without history has no SHA
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_digest = hashlib.sha256()
    pkg = os.path.join(SRC, "paintkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src_digest.update(name.encode() + f.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "source_sha256": src_digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pinned": BLAS_THREADS,
        "process_threads": len(os.listdir("/proc/self/task")),
        "PAINTKIT_THREADS": os.environ.get("PAINTKIT_THREADS"),
        **measured,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-op", type=int, default=0,
                        help="self-test only: corrupt the output of this timed operation")
    parser.add_argument("--setup-rep", metavar="DIR",
                        help="internal: time one set-up in DIR and print its seconds")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    import_paintkit()
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.setup_rep:
        workload = WORKLOADS[args.workload](args.seed, args.setup_rep)
        try:
            print(json.dumps({"setup_s": workload.timed_setup()}))
        finally:
            workload.cleanup()
        return 0

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None
    # Set-up is timed in fresh processes spread over the window, so that its
    # median samples the host's phases as the operations do. Traced runs do
    # not report it.
    setup_reps = 0 if args.trace else SETUP_REPS
    setup_times = []
    try:
        workload.prepare()
        ref = workload.run_op(0, None, False)  # warm-up, and the reference output
        reasons = [f"op 0: {p}" for p in ref["problems"]]
        failed = 1 if ref["problems"] else 0
        times, cycles, traced_times, traced_ops = [], [], [], []
        index = 0
        start = time.perf_counter()
        while True:
            due = len(setup_times) * args.seconds / max(setup_reps, 1)
            if len(setup_times) < setup_reps and time.perf_counter() - start >= due:
                setup_times.append(timed_setup(args, len(setup_times), work))
            index += 1
            traced = bool(args.trace) and index % 2 == 0
            cycle_start = time.perf_counter()
            try:
                res = workload.run_op(index, tracer if traced else None,
                                      args.corrupt_op == index)
                problems = list(res["problems"])
                if res["digest"] != ref["digest"]:
                    problems.append("output differs from the reference operation")
            except Exception as exc:  # a failed operation, counted and reported
                res, problems = {"seconds": None}, [f"{type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                reasons.extend(f"op {index}: {p}" for p in problems)
            if res["seconds"] is not None:
                if traced:
                    traced_times.append(res["seconds"])
                    traced_ops.append(index)
                else:
                    times.append(res["seconds"])
                    cycles.append(time.perf_counter() - cycle_start)
            if time.perf_counter() - start >= args.seconds and index >= 1 + args.trace:
                break
        window = time.perf_counter() - start
        while len(setup_times) < setup_reps:
            setup_times.append(timed_setup(args, len(setup_times), work))
    finally:
        workload.cleanup()
    if not times or (args.trace and not traced_times):
        sys.exit("error: no operation completed: " + "; ".join(reasons[:5]))

    attempted = index + 1
    patch_s = fastest(times)
    if args.trace:
        metrics = layer_metrics(tracer, traced_ops)
        metrics["trace.patch_s"] = fastest(traced_times)
        metrics["trace.untraced_patch_s"] = patch_s
        metrics["trace.overhead"] = metrics["trace.patch_s"] / patch_s - 1.0
        metrics["trace.ops"] = len(traced_ops)
        wanted = bench["per_layer"]
    else:
        metrics = {
            "patch_s": patch_s,
            "patches_per_min": 60.0 / fastest(cycles),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "combined_test_acc": ref["combined"] if ref["combined"] is not None else 0.0,
        }
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")

    tail_pct = tail(times)
    record = run_record(args, {
        "attempted": attempted,
        "failed": failed,
        "ops_failed": failed / attempted,
        "failures": reasons[:20],
        "samples": len(times),
        "window_s": window,
        "median_patch_s": statistics.median(times),
        "mean_patch_s": statistics.fmean(times),
        "ops_per_min": len(cycles) * 60.0 / sum(cycles),
        "patch_s_tail": None if tail_pct is None else
        {"percentile": tail_pct[0], "value": tail_pct[1], "beyond": TAIL_BEYOND},
        "setup_times": setup_times,
        "op_times": times,
        "cycle_times": cycles,
        "traced_op_times": traced_times,
        "metrics": metrics,
    })
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}")
    with open(base + ".record.json", "w") as f:
        json.dump(record, f, indent=1)
    if tracer is not None:
        tracer.write(base + ".spans.jsonl")

    print("run record: " + json.dumps({k: v for k, v in record.items()
                                       if k not in ("op_times", "cycle_times",
                                                    "traced_op_times")}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
