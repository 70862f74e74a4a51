"""Print JSON digests of the outputs that a refactor or optimization must not
change, for the paintkit sources beside this script or in ``--src DIR``.

    d=$(mktemp -d) && git archive REV src | tar -x -C "$d"
    python3 tools/output_digests.py --src "$d/src" > before.json  # REV's paintkit
    python3 tools/output_digests.py > after.json       # this checkout's src/
    diff before.json after.json                        # no output: same bits

    python3 tools/output_digests.py --section training # one section only

Sections (ROADMAP's outputs that must not change):

- ``cli_single``: ``paintkit gen-tasks``, ``pretrain``, ``finetune``, ``patch
  --strategy single``, ``gen-tasks --split_source``, ``report`` on the patch
  output, and ``metrics`` on its ``frontier.csv`` and on the zero-shot and
  patched checkpoints, on the criterion-7 toy, seed 0 (split seed 7): the
  bytes of every task CSV and checkpoint, each checkpoint as loaded,
  ``frontier.csv`` and ``scatter.csv``, ``patch_result.json`` without its
  timestamp and with its input paths relative to the lab's root, the
  ``experiments`` of ``report.json`` (its ``scatter_csv`` is a temporary
  path), and ``metrics.json`` with its frontier path relative to the lab's
  root.
- ``broad_transfer``: the CLI chain of the broad-transfer experiment on
  README's lab (``cli_single``'s, with ``--tasks "0-9|10-24"`` and
  ``--noise_scale 1.0``, where the patch moves the model): ``gen-tasks
  --split_source`` on task1 (seed 7), ``patch`` on its half ``task1_A`` with
  task0 supported and ``cli_single``'s patch settings, and ``metrics`` of
  the zero-shot and patched checkpoints on the other half, ``task1_B``: the
  bytes of both halves, of ``patched.ckpt`` (and the checkpoint as loaded) and
  of ``frontier.csv``, ``patch_result.json`` as in ``cli_single`` and its
  selected coefficients in plain text, and each key of ``metrics.json``
  apart.
- ``sequential_dense``: ``patch_sequential`` on the 60-class supported task,
  two patching tasks and a 51-point grid, seeds 0-2.
- ``pipeline``: every strategy on a small lab: single, joint, sequential over
  order seeds 0-2 and group-weighted, parallel uniform and black-box at k=2
  and k=3; and the one-task cases that select along one fine-tuned model
  whatever the search: joint and parallel (uniform, black-box) with one
  patching task, and single with black-box search.
- ``training``: ``pretrain`` and ``finetune`` (plain, L2-to-init, constant
  lr, float32 weights): final weights and the losses. The L2-to-init and
  constant-lr runs keep the names ``l2_init_ema`` and ``constant_lr_ema``
  from when ``finetune`` also kept an EMA shadow, so that their digests
  compare across revisions.
- ``baselines``: every point of the four ``baseline_frontiers`` frontiers
  (early stopping, L2-to-init, learning-rate ladder, EMA), snapshots every
  20 steps, on the training lab's classes, with 100 noisier examples per
  class.
- ``tasks``: the tasks of every lab above as ``generate_tasks`` builds them,
  their ``merge_tasks``, both ``split_task`` halves of the first task (seed
  7), and each of those after a ``to_csv``/``from_csv`` round trip: inputs,
  labels, class ids and each split's row indices (read through
  ``task.splits``).

Each checkpoint is digested as two fields: ``weights`` (tensor names, dtype,
shapes and bits) and ``meta``, so that a change to its metadata alone reads
as one. A patch result's digest covers the patched checkpoint, coefficients,
frontier, provenance, val and test accuracies, per-seed results,
``reconstruct``, and the number of val and test evaluations per task (not
their order). BLAS is pinned to one thread before numpy is imported. Only
public paintkit names are used. A revision whose ``baseline_frontiers``
reads its snapshot interval from ``TrainConfig`` needs the script of its own
revision.
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


def _import_paintkit(src):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import paintkit
    import paintkit.cli

    # A paintkit imported earlier in this process, or none under src, means
    # another tree would be digested.
    where = os.path.dirname(os.path.dirname(os.path.abspath(paintkit.__file__)))
    if os.path.realpath(where) != os.path.realpath(src):
        raise SystemExit(f"error: imported paintkit from {where}, not from {src}")
    return paintkit


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def _json_sha(obj) -> str:
    # json writes floats with repr, which round-trips every bit (and -0.0).
    return _sha(json.dumps(obj, sort_keys=True).encode())


def _ckpt(ckpt) -> dict:
    h = hashlib.sha256()
    for name, arr in ckpt.items():
        h.update(f"{name}|{arr.dtype}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return {"weights": h.hexdigest()[:32], "meta": _json_sha(ckpt.meta)}


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


def _task(task):
    return _json_sha({
        "inputs": [str(task.inputs.dtype), task.inputs.shape, _sha(task.inputs.tobytes())],
        "labels": [str(task.labels.dtype), task.labels.tolist()],
        "class_ids": list(task.class_ids),
        "splits": {name: [str(idx.dtype), idx.tolist()] for name, idx in task.splits.items()},
    })


# The generate_tasks arguments of ``cli_single``'s lab, and its partition as
# gen-tasks reads it and as the class ids that reading gives.
CLI_LAB = {"seed": 0, "num_classes": 25, "dim": 16, "samples_per_class": 20,
           "noise_scale": 0.5}
CLI_PARTITION = "0-19|20-24"
# README's broad-transfer lab: more held-out classes, noisier examples.
BROAD_LAB = {**CLI_LAB, "noise_scale": 1.0}
BROAD_PARTITION = "0-9|10-24"
CLI_GROUPS = [list(range(20)), list(range(20, 25))]
CLI_COMMON = ["--lr", "0.01", "--hidden", "32,32", "--seed", "0"]


def _cli_lab(root, lab=CLI_LAB, partition=CLI_PARTITION):
    """The commands that write the tasks of `lab` and `partition` (by
    default ``cli_single``'s) under `root`/tasks and the ``zero_shot.ckpt``
    pretrained on its task0 in `root`."""
    return [
        ["gen-tasks", "--out_dir", os.path.join(root, "tasks"), "--tasks", partition,
         *[arg for key, value in lab.items() for arg in (f"--{key}", str(value))]],
        ["pretrain", "--pretrain_tasks", os.path.join(root, "tasks", "task0.csv"),
         "--out_dir", root, "--iterations", "300", "--warmup", "20", *CLI_COMMON],
    ]


def _cli_patch(root, patching, out_dir):
    """The ``cli_single`` lab's single-strategy patch on the task CSV
    `patching`, with task0 supported."""
    return ["patch", "--zs_checkpoint", os.path.join(root, "zero_shot.ckpt"),
            "--patching_tasks", patching,
            "--supported_tasks", os.path.join(root, "tasks", "task0.csv"), "--out_dir", out_dir,
            "--strategy", "single", "--alpha_grid", "0:1:0.05", "--iterations", "200",
            "--warmup", "10", *CLI_COMMON]


def _run_cli(pk, commands):
    with redirect_stdout(io.StringIO()):
        return [pk.cli.main(argv) for argv in commands]


def _files(pk, root, paths):
    """Digests of the files at `paths`, keyed by their path relative to
    `root`; a checkpoint also as loaded."""
    out = {}
    for path in paths:
        name = os.path.relpath(path, root)
        with open(path, "rb") as f:
            out[name] = _sha(f.read())
        if path.endswith(".ckpt"):
            out[name + ":loaded"] = _ckpt(pk.load_checkpoint(path))
    return out


def _patch_result(root, path):
    with open(path) as f:
        result = json.load(f)
    result.pop("timestamp")
    # The inputs name files of this temporary lab: digest them relative to it.
    for key, paths in result.get("inputs", {}).items():
        result["inputs"][key] = ",".join(os.path.relpath(p, root) for p in paths.split(","))
    return _json_sha(result)


def cli_single(pk):
    with tempfile.TemporaryDirectory() as root:
        tasks = os.path.join(root, "tasks")
        patch = os.path.join(root, "patch")
        tuned = os.path.join(root, "finetune")
        splits = os.path.join(root, "splits")
        report = os.path.join(root, "report")
        metrics = os.path.join(root, "metrics")
        codes = _run_cli(pk, [
            *_cli_lab(root),
            _cli_patch(root, os.path.join(tasks, "task1.csv"), patch),
            ["finetune", "--zs_checkpoint", os.path.join(root, "zero_shot.ckpt"),
             "--task", os.path.join(tasks, "task1.csv"), "--out_dir", tuned,
             "--iterations", "200", "--warmup", "10", *CLI_COMMON],
            ["gen-tasks", "--split_source", os.path.join(tasks, "task0.csv"),
             "--out_dir", splits, "--seed", "7"],
            ["report", "--results_dir", patch, "--out_dir", report],
            ["metrics", "--frontier", os.path.join(patch, "frontier.csv"),
             "--ckpt_a", os.path.join(root, "zero_shot.ckpt"),
             "--ckpt_b", os.path.join(patch, "patched.ckpt"), "--out_dir", metrics],
        ])
        out = {"exit_codes": codes}
        out.update(_files(pk, root, (
            os.path.join(tasks, "task0.csv"), os.path.join(tasks, "task1.csv"),
            os.path.join(root, "zero_shot.ckpt"),
            os.path.join(patch, "patched.ckpt"), os.path.join(patch, "frontier.csv"),
            os.path.join(tuned, "finetuned_task1.ckpt"),
            os.path.join(splits, "task0_A.csv"), os.path.join(splits, "task0_B.csv"),
            os.path.join(report, "scatter.csv"))))
        out["patch/patch_result.json"] = _patch_result(root,
                                                       os.path.join(patch, "patch_result.json"))
        with open(os.path.join(report, "report.json")) as f:
            out["report/report.json:experiments"] = json.load(f)["experiments"]
        with open(os.path.join(metrics, "metrics.json")) as f:
            # Keyed by each frontier's path, which names this temporary lab.
            result = {os.path.relpath(k, root) if os.path.isabs(k) else k: v
                      for k, v in json.load(f).items()}
        out["metrics/metrics.json"] = _json_sha(result)
    return out


def broad_transfer(pk):
    with tempfile.TemporaryDirectory() as root:
        splits = os.path.join(root, "splits")
        patch = os.path.join(root, "patch")
        metrics = os.path.join(root, "metrics")
        codes = _run_cli(pk, [
            *_cli_lab(root, BROAD_LAB, BROAD_PARTITION),
            ["gen-tasks", "--split_source", os.path.join(root, "tasks", "task1.csv"),
             "--out_dir", splits, "--seed", "7"],
            _cli_patch(root, os.path.join(splits, "task1_A.csv"), patch),
            ["metrics", "--ckpt_a", os.path.join(root, "zero_shot.ckpt"),
             "--ckpt_b", os.path.join(patch, "patched.ckpt"),
             "--task", os.path.join(splits, "task1_B.csv"), "--out_dir", metrics],
        ])
        out = {"exit_codes": codes}
        out.update(_files(pk, root, (
            os.path.join(splits, "task1_A.csv"), os.path.join(splits, "task1_B.csv"),
            os.path.join(patch, "patched.ckpt"), os.path.join(patch, "frontier.csv"))))
        out["patch/patch_result.json"] = _patch_result(root,
                                                       os.path.join(patch, "patch_result.json"))
        with open(os.path.join(patch, "patch_result.json")) as f:
            out["patch/patch_result.json:coefficients"] = json.load(f)["coefficients"]
        with open(os.path.join(metrics, "metrics.json")) as f:
            for key, value in json.load(f).items():
                out[f"metrics/metrics.json:{key}"] = _json_sha(value)
    return out


def _sequential_tasks(pk, seed):
    return pk.generate_tasks(seed, 64, 16, 20, 0.5, [list(range(60)), [60, 61], [62, 63]])


def sequential_dense(pk):
    out = {}
    for seed in (0, 1, 2):
        tasks = _sequential_tasks(pk, seed)

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


def _pipeline_tasks(pk):
    return pk.generate_tasks(0, num_classes=10, dim=8, samples_per_class=20, noise_scale=0.3,
                             partition=((0, 1, 2, 3), (4, 5), (6, 7), (8, 9)))


def pipeline(pk):
    tasks = _pipeline_tasks(pk)
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
        "joint_k1": spec("joint", (1,)),
        "parallel_uniform_k1": spec("parallel", (1,), search="uniform"),
        "parallel_blackbox_k1": spec("parallel", (1,), search="blackbox", budget=30),
        "single_blackbox": spec("single", (1,), search="blackbox", budget=30),
    }
    return {name: _result(pk, pk.run_patch(s)) for name, s in runs.items()}


def _training_tasks(pk, samples_per_class, noise_scale):
    return pk.generate_tasks(1, num_classes=6, dim=6, samples_per_class=samples_per_class,
                             noise_scale=noise_scale, partition=((0, 1, 2, 3), (4, 5)))


def _training_lab(pk, samples_per_class=20, noise_scale=0.4):
    """Tasks, base config and pretrained model of ``training`` and ``baselines``."""
    tasks = _training_tasks(pk, samples_per_class, noise_scale)
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


def tasks(pk):
    labs = {
        "cli_single": pk.generate_tasks(**CLI_LAB, partition=CLI_GROUPS),
        **{f"sequential_dense_seed{seed}": _sequential_tasks(pk, seed) for seed in (0, 1, 2)},
        "pipeline": _pipeline_tasks(pk),
        "training": _training_tasks(pk, 20, 0.4),
        "baselines": _training_tasks(pk, 100, 1.5),
    }
    out = {}
    with tempfile.TemporaryDirectory() as root:
        for lab, generated in labs.items():
            proto = pk.split_task(generated[0], 7)
            built = {**{t.name: t for t in generated},
                     "merged": pk.merge_tasks(generated),
                     "split_A": proto.task_a, "split_B": proto.task_b}
            out[lab] = {}
            for name, task in built.items():
                path = os.path.join(root, f"{lab}_{name}.csv")
                task.to_csv(path)
                out[lab][name] = _task(task)
                out[lab][f"{name}_csv"] = _task(pk.TaskDataset.from_csv(path))
    return out


SECTIONS = {"cli_single": cli_single, "sequential_dense": sequential_dense,
            "pipeline": pipeline, "training": training, "baselines": baselines,
            "tasks": tasks, "broad_transfer": broad_transfer}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--section", action="append", choices=sorted(SECTIONS),
                        help="run only this section (repeatable); default: all")
    parser.add_argument("--src", default=SRC,
                        help="the directory to import paintkit from; default: %(default)s")
    args = parser.parse_args(argv)
    pk = _import_paintkit(args.src)
    names = args.section or list(SECTIONS)
    print(json.dumps({name: SECTIONS[name](pk) for name in names}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
