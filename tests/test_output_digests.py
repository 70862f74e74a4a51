"""Smoke test of tools/output_digests.py, the script that prints digests of
the outputs a change must keep bit for bit."""

import importlib.util
import io
import json
import os
from contextlib import redirect_stdout

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "output_digests.py")


def run(module, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert module.main(argv) == 0
    return out.getvalue()


def test_digests_are_deterministic():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # cli_single runs in a new temporary directory each time.
    argv = ["--section", "cli_single", "--section", "pipeline", "--section", "training",
            "--section", "baselines", "--section", "tasks", "--section", "broad_transfer",
            "--section", "sequential_dense"]
    first = run(module, argv)
    assert run(module, argv) == first
    digests = json.loads(first)
    assert set(digests) == set(module.SECTIONS)
    assert digests["cli_single"]["exit_codes"] == [0] * 7
    # gen-tasks, pretrain, the split, patch on one half, metrics on the other.
    broad = digests["broad_transfer"]
    assert broad["exit_codes"] == [0] * 5
    assert {"splits/task1_A.csv", "splits/task1_B.csv", "patch/patch_result.json"} <= set(broad)
    assert {key for key in broad if key.startswith("metrics/")} == {
        f"metrics/metrics.json:{key}" for key in ("weights", "cka", "test_accuracy")}
    # The patch on A moves the model, so metrics on B compare two models.
    assert all(c > 0 for c in broad["patch/patch_result.json:coefficients"])
    assert set(digests["sequential_dense"]) == {"seed0", "seed1", "seed2"}
    # Every digested result, and each of its per-seed results, reconstructs.
    results = [*digests["pipeline"].values(),
               *(seed["result"] for seed in digests["sequential_dense"].values())]
    results += [r for result in results for r in result.get("per_seed", [])]
    # 12 pipeline runs, 3 dense seeds, and per seed 3 + 1 (pipeline) + 3 (dense).
    assert len(results) == 22
    assert all(r["reconstruct_equal"] for r in results)
    # The log's order is digested beside its per-task counts.
    assert all({"access_counts", "access_order"} <= set(r) for r in results)
    assert len(digests["pipeline"]["sequential"]["per_seed"]) == 3
    assert set(digests["training"]["l2_init_ema"]) == {"final", "losses"}
    # A checkpoint's weights and meta are digested apart.
    assert set(digests["training"]["pretrain"]) == {"weights", "meta"}
    # Every strategy's patched checkpoint keeps the zero-shot model's meta.
    metas = {r["patched"]["meta"] for r in digests["pipeline"].values()}
    assert metas == {digests["pipeline"]["single"]["fine_tuned"][0]["meta"]}
    assert set(digests["baselines"]) == {"early_stopping", "l2_init", "learning_rate", "ema"}
    labs = digests["tasks"]
    assert set(labs) == {"cli_single", "pipeline", "training", "baselines",
                         *(f"sequential_dense_seed{seed}" for seed in (0, 1, 2))}
    for lab in labs.values():
        names = {name for name in lab if not name.endswith("_csv")}
        assert {"merged", "split_A", "split_B", "task0", "task1"} <= names
        assert set(lab) == names | {f"{name}_csv" for name in names}
        # Every task reads back from its CSV with the same digest.
        assert all(lab[name] == lab[f"{name}_csv"] for name in names)


def test_src_option_imports_paintkit_from_that_directory():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    default = run(module, ["--section", "tasks"])
    assert run(module, ["--section", "tasks", "--src", module.SRC]) == default
