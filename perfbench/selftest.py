"""Self-test of the benchmark: shows its checks are live.

    python3 perfbench/selftest.py

For every workload it runs the benchmark briefly with tracing off and on and
asserts that every metric named in BENCHMARK.json is emitted with its unit
and that no operation failed. It then corrupts the output of one operation
(one flipped byte in the patched checkpoint) and asserts that the run counts
a failed operation. Last, it runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark itself, where it must fail without printing
a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(args, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(result, wanted, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in wanted}
    assert got == expected, f"{label}: metrics {got} != {expected}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        common = ["--workload", workload, "--seed", "0", "--seconds", SECONDS]
        for trace, wanted in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, result, err = run(common + ["--trace", trace])
            assert code == 0 and result is not None, f"{label}: exit {code}\n{err}"
            check_metrics(result, wanted, label)
            assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
            print(f"ok  {label}: {result['attempted']} operations, all checks passed")

        label = f"{workload} with a corrupted output"
        code, result, err = run(common + ["--trace", "0", "--corrupt-op", "1"])
        assert result is not None, f"{label}: no result\n{err}"
        assert code != 0 and not result["correct"] and result["failed"] >= 1, \
            f"{label}: corruption not detected: {result}"
        print(f"ok  {label}: {result['failed']} of {result['attempted']} operations failed")

    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(["--workload", "cli_single", "--seed", "0", "--seconds",
                               SECONDS, "--trace", "0"], cwd=bare,
                              script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and result is None, "benchmark ran without the program's sources"
    print("ok  without the program's sources: exit", code, "and no result")


if __name__ == "__main__":
    main()
