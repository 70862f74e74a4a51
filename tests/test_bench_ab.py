"""The reducer of tools/bench_ab.py on canned benchmark runs, what it keeps of
a run's output (its set-up spread included), the trees it runs, and its refusal of a base revision that
does not resolve and of uncommitted changes."""

import importlib.util
import json
import os
import subprocess

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "bench_ab.py")
END_TO_END = [
    {"name": "patch_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "patches_per_min", "unit": "1/min", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(seed, patch_s, minflt_per_op, failed=0, setups=(0.07, 0.07)):
    return {"seed": seed, "metrics": {"patch_s": patch_s, "patches_per_min": 60.0 / patch_s},
            "attempted": 100, "failed": failed, "minflt_per_op": minflt_per_op,
            "setup_range": dict(zip(("fastest", "slowest"), setups)),
            "versions": {"python": "3.x"}, "source_sha256": f"sha-{minflt_per_op > 500}"}


def test_reducer_on_canned_runs(bench_ab):
    # The head tree is 10 % slower in three pairs of four, and trims the heap.
    base = [0.020, 0.022, 0.024, 0.030]
    head = [0.022, 0.0242, 0.0264, 0.027]
    pairs = [{"first": first, "base": canned_run(seed, b, 2.0),
              "head": canned_run(seed, h, 1400.0, failed=int(seed == 3))}
             for seed, (first, b, h) in enumerate(zip(["head", "base", "base", "head"],
                                                      base, head))]
    out = bench_ab.reduce_workload(pairs, END_TO_END)
    assert out["seeds"] == [0, 1, 2, 3]
    assert out["first"] == ["head", "base", "base", "head"]
    assert out["base"]["metrics"]["patch_s"] == {
        "median": pytest.approx(0.023), "iqr": pytest.approx(0.0255 - 0.0215)}
    assert out["head"]["metrics"]["patch_s"]["median"] == pytest.approx(0.0253)
    assert out["head"]["minflt_per_op"] == {"median": 1400.0, "iqr": 0.0}
    assert (out["base"]["failed"], out["head"]["failed"]) == (0, 1)
    assert out["head"]["attempted"] == 400
    assert out["head"]["source_sha256"] == ["sha-True"]
    patch_s = out["compare"]["patch_s"]
    assert patch_s["change"] == pytest.approx(0.0253 / 0.023 - 1)
    assert patch_s["median_pair_ratio"] == pytest.approx(1.1)
    assert (patch_s["head_won"], patch_s["pairs"], patch_s["within_bound"]) == (1, 4, True)
    assert patch_s["gain_rule_met"] is False
    # A higher-is-better metric: a fall counts against its bound.
    per_min = out["compare"]["patches_per_min"]
    assert per_min["head_won"] == 1
    assert per_min["change"] < 0 and per_min["within_bound"]


def test_reducer_reports_the_spread_of_each_run_s_set_ups(bench_ab):
    # Within a run the base's slowest set-up took 2.22, 1.1, 1.2 and 1.3
    # times its fastest, the head's 1.0: a setup_s change inside the base's
    # spread reads as a host phase.
    base = [(0.063, 0.14), (0.06, 0.066), (0.07, 0.084), (0.05, 0.065)]
    pairs = [{"first": "base", "base": canned_run(seed, 0.02, 2.0, setups=b),
              "head": canned_run(seed, 0.02, 2.0, setups=(0.07, 0.07))}
             for seed, b in enumerate(base)]
    out = bench_ab.reduce_workload(pairs, END_TO_END)
    # Inclusive quartiles of 1.1, 1.2, 1.3 and 0.14/0.063: 1.175 and 1.5306.
    assert out["base"]["setup_slowest_to_fastest"] == {
        "median": pytest.approx(1.25), "iqr": pytest.approx(0.975 + 0.14 / 0.063 / 4 - 1.175)}
    assert out["head"]["setup_slowest_to_fastest"] == {"median": 1.0, "iqr": 0.0}


def test_change_beyond_a_bound_is_reported(bench_ab):
    pairs = [{"first": "base", "base": canned_run(0, 0.020, 2.0),
              "head": canned_run(0, 0.030, 2.0)}]
    out = bench_ab.reduce_workload(pairs, END_TO_END)
    assert out["compare"]["patch_s"]["within_bound"] is False
    assert out["compare"]["patch_s"]["change"] == pytest.approx(0.5)
    assert out["compare"]["patches_per_min"]["within_bound"] is False
    assert out["base"]["metrics"]["patch_s"] == {"median": 0.020, "iqr": 0.0}


def test_ties_count_for_neither_side(bench_ab):
    end_to_end = [{"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
                  {"name": "combined_test_acc", "unit": "fraction", "better": "higher",
                   "bound": 0.2}]

    def run(seed, rss):
        return {"seed": seed, "metrics": {"peak_rss_mb": rss, "combined_test_acc": 0.75},
                "attempted": 10, "failed": 0, "minflt_per_op": 2.0, "source_sha256": "x",
                "setup_range": {"fastest": 0.07, "slowest": 0.07}}

    # The base wins pair 0, the pairs tie at 40.5 MiB in pair 1, the head wins the rest.
    rss = [(40.0, 40.25), (40.5, 40.5), (41.0, 40.75), (40.0, 39.5)]
    pairs = [{"first": "base", "base": run(seed, b), "head": run(seed, h)}
             for seed, (b, h) in enumerate(rss)]
    compare = bench_ab.reduce_workload(pairs, end_to_end)["compare"]
    counts = {name: (c["head_won"], c["base_won"], c["ties"], c["pairs"])
              for name, c in compare.items()}
    assert counts == {"peak_rss_mb": (2, 1, 1, 4), "combined_test_acc": (0, 0, 4, 4)}
    assert not compare["peak_rss_mb"]["gain_rule_met"]
    assert not compare["combined_test_acc"]["gain_rule_met"]


@pytest.mark.parametrize("head, met", [
    # Faster in 10/10 pairs, by more than the base's IQR of 0.00075.
    ([0.019] * 10, True),
    # Faster in 10/10 pairs, by less than that IQR.
    ([0.0248] * 10, False),
    # Faster by far, but in only 8/10 pairs.
    ([0.019] * 8 + [0.030] * 2, False),
], ids=["clear_gain", "inside_iqr", "eight_of_ten"])
def test_gain_rule(bench_ab, head, met):
    base = [0.0245, 0.025, 0.0255, 0.025, 0.0245, 0.0255, 0.025, 0.025, 0.0245, 0.0255]
    pairs = [{"first": "base", "base": canned_run(seed, b, 2.0),
              "head": canned_run(seed, h, 2.0)}
             for seed, (b, h) in enumerate(zip(base, head))]
    out = bench_ab.reduce_workload(pairs, END_TO_END)
    assert out["base"]["metrics"]["patch_s"]["iqr"] == pytest.approx(0.00075)
    # The rule reads each metric in its own direction.
    assert out["compare"]["patch_s"]["gain_rule_met"] is met
    assert out["compare"]["patches_per_min"]["gain_rule_met"] is met


def stub_run_once(bench_ab, monkeypatch):
    """bench_ab.run_once on a stubbed benchmark run, with no MALLOC_* or
    bytecode variable in the environment."""
    record = {"python": "3.x", "numpy": "2.x", "blas": {"name": "openblas"}, "nproc": 2,
              "affinity_cpus": 2, "blas_threads_pinned": 1, "source_sha256": "abc",
              "process_threads": 1, "setup_times": [0.07, 0.063, 0.14, 0.071]}
    result = {"attempted": 4, "failed": 0,
              "metrics": {"patch_s": {"value": 0.02, "unit": "s"}}}
    stdout = f"run record: {json.dumps(record)}\n{json.dumps(result)}\n"
    monkeypatch.setattr(bench_ab.subprocess, "run",
                        lambda *a, **kw: subprocess.CompletedProcess(a, 0, stdout, ""))
    for key in [k for k in os.environ if k.startswith("MALLOC_")] + list(bench_ab.BYTECODE_KEYS):
        monkeypatch.delenv(key, raising=False)
    return lambda: bench_ab.run_once("tree", "cli_single", 3, 1)


def test_run_records_pins_and_heap_settings(bench_ab, monkeypatch):
    run_once = stub_run_once(bench_ab, monkeypatch)
    monkeypatch.setenv("MALLOC_TOP_PAD_", "2000000")
    run = run_once()
    assert run["versions"] == {
        "python": "3.x", "numpy": "2.x", "blas": {"name": "openblas"}, "nproc": 2,
        "blas_threads_pinned": 1, "affinity_cpus": 2, "MALLOC_TOP_PAD_": "2000000",
        "PYTHONDONTWRITEBYTECODE": None, "PYTHONPYCACHEPREFIX": None}
    assert (run["seed"], run["metrics"], run["source_sha256"]) == (3, {"patch_s": 0.02}, "abc")


def test_run_keeps_its_fastest_and_slowest_set_up(bench_ab, monkeypatch):
    run = stub_run_once(bench_ab, monkeypatch)()
    assert run["setup_range"] == {"fastest": 0.063, "slowest": 0.14}


def test_run_records_the_bytecode_settings(bench_ab, monkeypatch):
    # Without written bytecode every run compiles paintkit from source, so
    # peak_rss_mb follows the size of the sources.
    run_once = stub_run_once(bench_ab, monkeypatch)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/tmp/pycache")
    versions = run_once()["versions"]
    assert (versions["PYTHONDONTWRITEBYTECODE"], versions["PYTHONPYCACHEPREFIX"]) == (
        "1", "/tmp/pycache")


def test_refuses_a_base_that_does_not_resolve(bench_ab):
    with pytest.raises(SystemExit, match="does not resolve to a commit"):
        bench_ab.main(["--base", "no-such-revision-anywhere"])


SHAS = {"base^{commit}": "b" * 40, "HEAD^{commit}": "a" * 40}


@pytest.fixture
def fake_checkout(bench_ab, monkeypatch, tmp_path):
    """main() on a fake checkout: git answers from SHAS and `status`, and
    extract and run_once only record their calls. Yields the calls."""
    calls = {"git": [], "extract": [], "run_once": [], "status": ""}

    def git(*args):
        calls["git"].append(args)
        if args[0] == "rev-parse":
            return 0, SHAS.get(args[-1], "")
        return 0, calls["status"] if args[0] == "status" else ""

    def extract(sha, tree):
        calls["extract"].append((sha, tree))
        os.makedirs(tree, exist_ok=True)
        return tree

    def run_once(tree, workload, seed, seconds):
        calls["run_once"].append(tree)
        return canned_run(seed, 0.02, 2.0)

    with open(tmp_path / "BENCHMARK.json", "w") as f:
        json.dump({"run_seconds": 1, "workloads": [{"name": "cli_single"}],
                   "end_to_end": END_TO_END}, f)
    for name, fn in (("git", git), ("extract", extract), ("run_once", run_once),
                     ("ROOT", str(tmp_path))):
        monkeypatch.setattr(bench_ab, name, fn)
    return calls


def test_both_sides_run_from_extracted_trees(bench_ab, fake_checkout, tmp_path):
    checkout = os.path.realpath(os.path.dirname(os.path.dirname(SCRIPT)))
    assert bench_ab.main(["--base", "base", "--pairs", "3"]) == 0
    # One tree per commit: the base's and HEAD's.
    trees = dict(fake_checkout["extract"])
    assert len(fake_checkout["extract"]) == 2 and sorted(trees) == sorted(SHAS.values())
    assert len(set(trees.values())) == 2
    # Every run starts from one of the two trees, three runs on each.
    assert sorted(fake_checkout["run_once"]) == sorted([*trees.values()] * 3)
    for tree in trees.values():
        tree = os.path.realpath(tree)
        assert tree != checkout and not tree.startswith(checkout + os.sep)
        assert tree != str(tmp_path)
    with open(tmp_path / f"BENCH_{'a' * 7}.json") as f:
        report = json.load(f)
    assert report["head"] == {"sha": SHAS["HEAD^{commit}"]}
    assert report["base"] == {"rev": "base", "sha": SHAS["base^{commit}"]}


def test_refuses_uncommitted_changes_before_any_work(bench_ab, fake_checkout, tmp_path):
    fake_checkout["status"] = " M src/paintkit/pipeline.py"
    with pytest.raises(SystemExit, match="uncommitted changes(.|\\n)*pipeline.py"):
        bench_ab.main(["--base", "base"])
    status = ("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json")
    assert status in fake_checkout["git"]
    assert fake_checkout["extract"] == [] and fake_checkout["run_once"] == []
    assert not [name for name in os.listdir(tmp_path) if name.startswith("BENCH_")]


def test_without_a_base_head_runs_alone(bench_ab, fake_checkout, tmp_path, monkeypatch):
    def run_once(tree, workload, seed, seconds):
        fake_checkout["run_once"].append(tree)
        return canned_run(seed, [0.020, 0.022, 0.030][seed], [2.0, 4.0, 1400.0][seed])

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    assert bench_ab.main(["--pairs", "3"]) == 0
    # One tree, HEAD's, and every run on it.
    (extracted,) = fake_checkout["extract"]
    assert extracted[0] == SHAS["HEAD^{commit}"]
    assert fake_checkout["run_once"] == [extracted[1]] * 3
    assert not [args for args in fake_checkout["git"] if args[-1] == "base^{commit}"]
    assert not [name for name in os.listdir(tmp_path) if name.startswith("BENCH_")]
    with open(tmp_path / f"TRAJECTORY_{'a' * 7}.json") as f:
        report = json.load(f)
    assert "base" not in report and report["head"] == {"sha": SHAS["HEAD^{commit}"]}
    workload = report["workloads"]["cli_single"]
    assert sorted(workload) == ["head", "seeds"]
    assert workload["seeds"] == [0, 1, 2]
    head = workload["head"]
    assert head["metrics"]["patch_s"] == {"median": 0.022, "iqr": pytest.approx(0.005)}
    assert head["minflt_per_op"] == {"median": 4.0, "iqr": 699.0}
    assert (head["attempted"], head["failed"]) == (300, 0)
