"""Print JSON digests of the outputs that a refactor or optimization must not
change, for the paintkit sources beside this script.

    python3 tools/output_digests.py > before.json      # on one revision
    python3 tools/output_digests.py > after.json       # on another
    diff before.json after.json                        # no output: same bits

    python3 tools/output_digests.py --section training # one section only

Sections (ROADMAP's outputs that must not change):

- ``cli_single``: ``paintkit gen-tasks``, ``pretrain``, ``finetune``, ``patch
  --strategy single``, ``gen-tasks --split_source`` and ``report`` on the
  patch output, on the criterion-7 toy, seed 0 (split seed 7): the bytes of
  every task CSV and checkpoint, ``frontier.csv`` and ``scatter.csv``,
  ``patch_result.json`` without its timestamp, and the ``experiments`` of
  ``report.json`` (its ``scatter_csv`` is a temporary path).
- ``sequential_dense``: ``patch_sequential`` on the 60-class supported task,
  two patching tasks and a 51-point grid, seeds 0-2.
- ``pipeline``: every strategy on a small lab: single, joint, sequential over
  order seeds 0-2 and group-weighted, parallel uniform and black-box at k=2
  and k=3.
- ``training``: ``pretrain`` and ``finetune`` (plain, L2-to-init, constant
  lr, float32 weights): final weights and the losses. The L2-to-init and
  constant-lr runs keep the names ``l2_init_ema`` and ``constant_lr_ema``
  from when ``finetune`` also kept an EMA shadow, so that their digests
  compare across revisions.
- ``baselines``: every point of the four ``baseline_frontiers`` frontiers
  (early stopping, L2-to-init, learning-rate ladder, EMA), snapshots every
  20 steps, on the training lab's classes, with 100 noisier examples per
  class.

A patch result's digest covers the patched weights, coefficients, frontier,
provenance, val and test accuracies, per-seed results, ``reconstruct``, and
the number of val and test evaluations per task (not their order). BLAS is
pinned to one thread before numpy is imported. Only public paintkit names are
used. A revision whose ``baseline_frontiers`` reads its snapshot interval
from ``TrainConfig`` needs the script of its own revision.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_paintkit():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import paintkit
    import paintkit.cli

    return paintkit


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def _json_sha(obj) -> str:
    # json writes floats with repr, which round-trips every bit (and -0.0).
    return _sha(json.dumps(obj, sort_keys=True).encode())


def _ckpt(ckpt) -> str:
    h = hashlib.sha256()
    for name, arr in ckpt.items():
        h.update(f"{name}|{arr.dtype}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    h.update(json.dumps(ckpt.meta, sort_keys=True).encode())
    return h.hexdigest()[:32]


def _frontier(frontier) -> str:
    return _json_sha([(p.alpha, p.supported_acc, p.patching_acc) for p in frontier.points])


def _result(pk, result):
    log = result.access_log
    counts = {part: sorted(collections.Counter(map(tuple, log[part])).items())
              for part in ("selection", "report")}
    out = {
        "patched": _ckpt(result.patched),
        "reconstruct_equal": pk.reconstruct(result).equal(result.patched),
        "coefficients": _json_sha(list(result.coefficients)),
        "frontier": _frontier(result.frontier),
        "provenance": _json_sha(result.provenance),
        "val": _json_sha(result.val_accuracies),
        "test": _json_sha(result.test_accuracies),
        "averaged": _json_sha([result.averaged_val_accuracies,
                               result.averaged_test_accuracies]),
        "fine_tuned": [_ckpt(c) for c in result.fine_tuned],
        "access_counts": _json_sha(counts),
    }
    if result.per_seed:
        out["per_seed"] = [_result(pk, r) for r in result.per_seed]
    return out


def _record(record):
    return {
        "final": _ckpt(record.final),
        "losses": _json_sha(record.losses),
    }


def cli_single(pk):
    with tempfile.TemporaryDirectory() as root:
        tasks = os.path.join(root, "tasks")
        patch = os.path.join(root, "patch")
        tuned = os.path.join(root, "finetune")
        splits = os.path.join(root, "splits")
        report = os.path.join(root, "report")
        common = ["--lr", "0.01", "--hidden", "32,32", "--seed", "0"]
        commands = [
            ["gen-tasks", "--out_dir", tasks, "--seed", "0", "--num_classes", "25",
             "--dim", "16", "--samples_per_class", "20", "--noise_scale", "0.5",
             "--tasks", "0-19|20-24"],
            ["pretrain", "--pretrain_tasks", os.path.join(tasks, "task0.csv"),
             "--out_dir", root, "--iterations", "300", "--warmup", "20", *common],
            ["patch", "--zs_checkpoint", os.path.join(root, "zero_shot.ckpt"),
             "--patching_tasks", os.path.join(tasks, "task1.csv"),
             "--supported_tasks", os.path.join(tasks, "task0.csv"), "--out_dir", patch,
             "--strategy", "single", "--alpha_grid", "0:1:0.05", "--iterations", "200",
             "--warmup", "10", *common],
            ["finetune", "--zs_checkpoint", os.path.join(root, "zero_shot.ckpt"),
             "--task", os.path.join(tasks, "task1.csv"), "--out_dir", tuned,
             "--iterations", "200", "--warmup", "10", *common],
            ["gen-tasks", "--split_source", os.path.join(tasks, "task0.csv"),
             "--out_dir", splits, "--seed", "7"],
            ["report", "--results_dir", patch, "--out_dir", report],
        ]
        with redirect_stdout(io.StringIO()):
            codes = [pk.cli.main(argv) for argv in commands]
        out = {"exit_codes": codes}
        for path in (os.path.join(tasks, "task0.csv"), os.path.join(tasks, "task1.csv"),
                     os.path.join(root, "zero_shot.ckpt"),
                     os.path.join(patch, "patched.ckpt"), os.path.join(patch, "frontier.csv"),
                     os.path.join(tuned, "finetuned_task1.ckpt"),
                     os.path.join(splits, "task0_A.csv"), os.path.join(splits, "task0_B.csv"),
                     os.path.join(report, "scatter.csv")):
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = _sha(f.read())
        with open(os.path.join(patch, "patch_result.json")) as f:
            result = json.load(f)
        result.pop("timestamp")
        out["patch/patch_result.json"] = _json_sha(result)
        with open(os.path.join(report, "report.json")) as f:
            out["report/report.json:experiments"] = json.load(f)["experiments"]
    return out


def sequential_dense(pk):
    out = {}
    for seed in (0, 1, 2):
        groups = [list(range(60)), [60, 61], [62, 63]]
        tasks = pk.generate_tasks(seed, 64, 16, 20, 0.5, groups)

        def cfg(iterations, warmup):
            return pk.TrainConfig(iterations=iterations, batch_size=64, lr=1e-2,
                                  warmup=warmup, hidden=(32, 32), embed_dim=16, seed=seed)

        model = pk.pretrain(cfg(300, 20), [tasks[0]])
        spec = pk.PatchSpec(model=model, patching_tasks=tasks[1:], supported_tasks=[tasks[0]],
                            strategy="sequential",
                            alpha_grid=[round(i * 0.02, 10) for i in range(51)],
                            order_seeds=(0,), train=cfg(40, 10))
        out[f"seed{seed}"] = {"zero_shot": _ckpt(model.ckpt),
                              "result": _result(pk, pk.patch_sequential(spec))}
    return out


def pipeline(pk):
    tasks = pk.generate_tasks(0, num_classes=10, dim=8, samples_per_class=20, noise_scale=0.3,
                              partition=((0, 1, 2, 3), (4, 5), (6, 7), (8, 9)))
    model = pk.pretrain(pk.TrainConfig(iterations=150, batch_size=32, lr=1e-2, warmup=10,
                                       hidden=(16,), embed_dim=8, seed=0), [tasks[0]])
    train = pk.TrainConfig(iterations=60, batch_size=32, lr=1e-2, warmup=5,
                           hidden=(16,), embed_dim=8, seed=0)

    def spec(strategy, patch_idx, **kw):
        return pk.PatchSpec(model=model, patching_tasks=[tasks[i] for i in patch_idx],
                            supported_tasks=[tasks[0]], strategy=strategy,
                            alpha_grid=[i / 10 for i in range(11)], train=train, **kw)

    runs = {
        "single": spec("single", (1,)),
        "joint": spec("joint", (1, 2)),
        "sequential": spec("sequential", (1, 2, 3), order_seeds=(0, 1, 2)),
        "sequential_grouped": spec("sequential", (1, 2, 3), group_weighting=True),
        "parallel_uniform_k2": spec("parallel", (1, 2), search="uniform"),
        "parallel_uniform_k3": spec("parallel", (1, 2, 3), search="uniform"),
        "parallel_blackbox_k2": spec("parallel", (1, 2), search="blackbox", budget=30),
        "parallel_blackbox_k3": spec("parallel", (1, 2, 3), search="blackbox", budget=30),
    }
    return {name: _result(pk, pk.run_patch(s)) for name, s in runs.items()}


def _training_lab(pk, samples_per_class=20, noise_scale=0.4):
    """Tasks, base config and pretrained model of ``training`` and ``baselines``."""
    tasks = pk.generate_tasks(1, num_classes=6, dim=6, samples_per_class=samples_per_class,
                              noise_scale=noise_scale, partition=((0, 1, 2, 3), (4, 5)))
    base = pk.TrainConfig(iterations=60, batch_size=16, lr=1e-2, warmup=5,
                          hidden=(16, 8), embed_dim=8, seed=3)
    return tasks, base, pk.pretrain(base, [tasks[0]])


def training(pk):
    tasks, base, model = _training_lab(pk)
    wide32 = pk.ToyModel(pk.Checkpoint({n: a.astype("float32") for n, a in model.ckpt.items()},
                                       model.ckpt.meta))
    runs = {
        "plain": (model, base),
        "l2_init_ema": (model, replace(base, l2_init=0.05)),
        "constant_lr_ema": (model, replace(base, constant_lr=True)),
        "float32": (wide32, base),
    }
    out = {"pretrain": _ckpt(model.ckpt)}
    out.update({name: _record(pk.finetune(m, tasks[1], cfg)) for name, (m, cfg) in runs.items()})
    return out


def baselines(pk):
    # Larger, noisier tasks put the val accuracies mid-range, so that a change
    # to a ladder's minibatches shows in the frontiers; on the 20-sample lab
    # it did not.
    tasks, base, model = _training_lab(pk, samples_per_class=100, noise_scale=1.5)
    frontiers = pk.baseline_frontiers(model, tasks[1], tasks[0], base, snapshot_every=20)
    return {name: _frontier(f) for name, f in frontiers.items()}


SECTIONS = {"cli_single": cli_single, "sequential_dense": sequential_dense,
            "pipeline": pipeline, "training": training, "baselines": baselines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--section", action="append", choices=sorted(SECTIONS),
                        help="run only this section (repeatable); default: all")
    args = parser.parse_args(argv)
    pk = _import_paintkit()
    names = args.section or list(SECTIONS)
    print(json.dumps({name: SECTIONS[name](pk) for name in names}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
