"""The reducer of tools/bench_ab.py on canned benchmark runs, and its refusal
of a base revision that does not resolve."""

import importlib.util
import os

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


def canned_run(seed, patch_s, minflt_per_op, failed=0):
    return {"seed": seed, "metrics": {"patch_s": patch_s, "patches_per_min": 60.0 / patch_s},
            "attempted": 100, "failed": failed, "minflt_per_op": minflt_per_op,
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
    # A higher-is-better metric: a fall counts against its bound.
    per_min = out["compare"]["patches_per_min"]
    assert per_min["head_won"] == 1
    assert per_min["change"] < 0 and per_min["within_bound"]


def test_change_beyond_a_bound_is_reported(bench_ab):
    pairs = [{"first": "base", "base": canned_run(0, 0.020, 2.0),
              "head": canned_run(0, 0.030, 2.0)}]
    out = bench_ab.reduce_workload(pairs, END_TO_END)
    assert out["compare"]["patch_s"]["within_bound"] is False
    assert out["compare"]["patch_s"]["change"] == pytest.approx(0.5)
    assert out["compare"]["patches_per_min"]["within_bound"] is False
    assert out["base"]["metrics"]["patch_s"] == {"median": 0.020, "iqr": 0.0}


def test_refuses_a_base_that_does_not_resolve(bench_ab):
    with pytest.raises(SystemExit, match="does not resolve to a commit"):
        bench_ab.main(["--base", "no-such-revision-anywhere"])
