"""Command-line surface: task generation, pretraining, fine-tuning, patching,
frontier metrics, and plot-ready report emission.

Configuration is a flat key=value text file; any key can be overridden on
the command line as `--key value`. Exit codes: 0 success, 1 usage/config
error, 2 runtime/data error.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import metrics as metrics_mod
from .metrics import Frontier, FrontierPoint, rep_matrix_from_csv
from ._atomic import atomic_open
from .pipeline import PatchSpec, check_selection, run_patch, split_task
from .tensors import (
    CheckpointError,
    cosine_similarity,
    l1_mean_distance,
    load_checkpoint,
    save_checkpoint,
)
from .toylab import TaskDataset, ToyModel, TrainConfig, finetune, generate_tasks, pretrain

USAGE_ERROR = 1
RUNTIME_ERROR = 2

# A start:stop:step alpha_grid may expand to at most this many points.
MAX_GRID_POINTS = 10_001

class ConfigError(Exception):
    pass


def parse_config(path=None, overrides=()):
    cfg = {}
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    cfg.update(overrides)
    for key in cfg:
        if key not in KEYS:
            raise ConfigError(f"unknown config key: {key}")
    return cfg


def parse_overrides(tokens):
    overrides = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument: {tok}")
        key = tok[2:].replace("-", "_")
        if i + 1 >= len(tokens):
            raise ConfigError(f"missing value for --{key}")
        overrides[key] = tokens[i + 1]
        i += 2
    return overrides


def require(cfg, *keys):
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"missing required key: {key}")
    return [cfg[k] for k in keys]


def parse_grid(text):
    """'start:stop:step' or comma-separated values."""
    try:
        values = [float(v) for v in text.split(":" if ":" in text else ",")]
    except ValueError:
        raise ConfigError(f"alpha_grid is not numeric: {text!r}") from None
    if not all(np.isfinite(values)):
        raise ConfigError(f"alpha_grid is not finite: {text!r}")
    if ":" not in text:
        return values
    if len(values) != 3:
        raise ConfigError(f"alpha_grid range must be start:stop:step: {text!r}")
    start, stop, step = values
    if step <= 0:
        raise ConfigError(f"alpha_grid step must be positive: {text!r}")
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
        raise ConfigError(f"alpha_grid range must lie in [0, 1]: {text!r}")
    # Bounded before the list is built: a tiny step would otherwise ask for
    # billions of points.
    if (stop - start) / step + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"alpha_grid has more than {MAX_GRID_POINTS} points: {text!r}")
    n = int(round((stop - start) / step))
    return [round(start + i * step, 10) for i in range(n + 1)]


def parse_partition(text):
    """Class partition like '0-9|10-14|15-19' or '0,1,2|3,4,5'."""
    groups = []
    for part in text.split("|"):
        ids = []
        for item in part.split(","):
            if "-" in item:
                lo, hi = item.split("-")
                ids.extend(range(int(lo), int(hi) + 1))
            else:
                ids.append(int(item))
        groups.append(ids)
    return groups


def atomic_write_json(path, obj):
    with atomic_open(path) as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def truthy(text):
    """A strict boolean: 1/0, true/false or yes/no, in any case."""
    value = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}.get(text.lower())
    if value is None:
        raise ValueError(f"not a boolean: {text!r}")
    return value


def int_list(text):
    return tuple(int(v) for v in text.split(","))


def finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def non_negative_int(text):
    value = int(text)
    if value < 0:
        raise ValueError(f"negative: {text!r}")
    return value


def non_negative_ints(text):
    return tuple(non_negative_int(v) for v in text.split(","))


# Every config key, with the cast from its text to the value commands read.
KEYS = {
    # general
    "seed": non_negative_int, "out_dir": str,
    # task generation
    "num_classes": int, "dim": int, "samples_per_class": int, "noise_scale": finite_float,
    "tasks": parse_partition, "split_source": str,
    # training: the TrainConfig fields a command's output depends on
    "iterations": int, "batch_size": int, "lr": finite_float, "warmup": int,
    "weight_decay": finite_float, "l2_init": finite_float, "constant_lr": truthy,
    "hidden": int_list, "embed_dim": int, "logit_scale": finite_float,
    # patching
    "strategy": str, "alpha_grid": parse_grid, "search": str, "order_seeds": non_negative_ints,
    "budget": int, "group_weighting": truthy, "zs_checkpoint": str,
    "patching_tasks": str, "supported_tasks": str, "pretrain_tasks": str, "task": str,
    # metrics
    "frontier": str, "ckpt_a": str, "ckpt_b": str, "rep_a": str, "rep_b": str,
    # report
    "results_dir": str,
}
TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
# The PatchSpec settings a config may set; PatchSpec's defaults fill the rest.
SELECTION_KEYS = ("strategy", "alpha_grid", "search", "order_seeds", "budget",
                  "group_weighting")


def cast_config(cfg):
    """Every value of `cfg` cast by its key's KEYS entry. Commands read only
    the cast values, so a malformed one is a usage error before any work."""
    typed = {}
    for key, text in cfg.items():
        try:
            typed[key] = KEYS[key](text)
        except ValueError:
            raise ConfigError(f"invalid {key}: {text!r}") from None
    return typed


def _as_usage_error(fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError reported as a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def train_config(cfg):
    return _as_usage_error(TrainConfig, **{k: v for k, v in cfg.items() if k in TRAIN_KEYS})


def load_tasks(paths_text, width=None):
    """The tasks of comma-separated CSV paths. A task without a train, val or
    test split, or without `width` features per example (default: the first
    task's count), is a ValueError naming its file."""
    tasks = []
    for path in paths_text.split(","):
        task = TaskDataset.from_csv(path, name=os.path.splitext(os.path.basename(path))[0])
        for split in ("train", "val", "test"):
            if split not in task.splits:
                raise ValueError(f"{path}: no {split!r} split")
        width = task.dim if width is None else width
        if task.dim != width:
            raise ValueError(f"{path}: {task.dim} features per example, but the model "
                             f"takes {width} inputs")
        tasks.append(task)
    return tasks


def cmd_gen_tasks(cfg):
    (out_dir,) = require(cfg, "out_dir")
    # Every usage error is reported before the output directory is created.
    if "split_source" in cfg:
        (task,) = load_tasks(cfg["split_source"])
        os.makedirs(out_dir, exist_ok=True)
        proto = split_task(task, cfg.get("seed", 0))
        for sub in (proto.task_a, proto.task_b):
            sub.to_csv(os.path.join(out_dir, f"{sub.name}.csv"))
            print(f"wrote {os.path.join(out_dir, sub.name + '.csv')}")
        return 0
    args = require(cfg, "seed", "num_classes", "dim", "samples_per_class", "noise_scale",
                   "tasks")
    tasks = _as_usage_error(generate_tasks, *args)
    os.makedirs(out_dir, exist_ok=True)
    for task in tasks:
        path = os.path.join(out_dir, f"{task.name}.csv")
        task.to_csv(path)
        print(f"wrote {path}")
    return 0


def cmd_pretrain(cfg):
    tasks_text, out_dir = require(cfg, "pretrain_tasks", "out_dir")
    tc = train_config(cfg)
    tasks = load_tasks(tasks_text)
    os.makedirs(out_dir, exist_ok=True)
    model = pretrain(tc, tasks)
    path = os.path.join(out_dir, "zero_shot.ckpt")
    save_checkpoint(model.ckpt, path)
    print(f"wrote {path}")
    return 0


def cmd_finetune(cfg):
    ckpt_path, task_text, out_dir = require(cfg, "zs_checkpoint", "task", "out_dir")
    tc = train_config(cfg)
    model = ToyModel(load_checkpoint(ckpt_path))
    (task,) = load_tasks(task_text, model.in_dim)
    os.makedirs(out_dir, exist_ok=True)
    record = finetune(model, task, tc)
    path = os.path.join(out_dir, f"finetuned_{task.name}.ckpt")
    save_checkpoint(record.final, path)
    print(f"wrote {path}")
    return 0


def _result_json(result, strategy):
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "strategy": strategy,
        "coefficients": list(result.coefficients),
        "val_accuracies": result.val_accuracies,
        "test_accuracies": result.test_accuracies,
        "averaged_val_accuracies": result.averaged_val_accuracies,
        "averaged_test_accuracies": result.averaged_test_accuracies,
        "frontier": {"unit": result.frontier.unit, "points": result.frontier.to_records()},
        "provenance": {k: v for k, v in result.provenance.items()},
    }


def cmd_patch(cfg):
    ckpt_path, patching_text, supported_text, out_dir = require(
        cfg, "zs_checkpoint", "patching_tasks", "supported_tasks", "out_dir"
    )
    selection = {k: cfg[k] for k in SELECTION_KEYS if k in cfg}
    # Every usage error is reported before anything is written, loaded or trained.
    # `report` reads every patch result in a directory, so one run owns it.
    earlier = sorted(glob.glob(os.path.join(glob.escape(out_dir), "patch_result*.json")))
    if earlier:
        raise ConfigError(f"{earlier[0]} exists: out_dir holds an earlier patch run")
    _as_usage_error(check_selection, selection)
    tc = train_config(cfg)
    # Every data error is reported before the output directory is created.
    model = ToyModel(load_checkpoint(ckpt_path))
    patching = load_tasks(patching_text, model.in_dim)
    supported = load_tasks(supported_text, model.in_dim)
    spec = PatchSpec(model=model, patching_tasks=patching, supported_tasks=supported,
                     train=tc, **selection)
    os.makedirs(out_dir, exist_ok=True)
    result = run_patch(spec)

    save_checkpoint(result.patched, os.path.join(out_dir, "patched.ckpt"))
    result.frontier.to_csv(os.path.join(out_dir, "frontier.csv"))
    atomic_write_json(os.path.join(out_dir, "patch_result.json"),
                      _result_json(result, spec.strategy))
    for seed, seed_result in zip(spec.order_seeds, result.per_seed):
        atomic_write_json(
            os.path.join(out_dir, f"patch_result_seed{seed}.json"),
            _result_json(seed_result, spec.strategy),
        )
    print(f"strategy={spec.strategy} coefficients={list(result.coefficients)}")
    print(f"wrote {os.path.join(out_dir, 'patch_result.json')}")
    return 0


def cmd_metrics(cfg):
    report = {}
    if "frontier" in cfg:
        for path in cfg["frontier"].split(","):
            f = Frontier.from_csv(path)
            entry = {
                "distance_to_endpoints": metrics_mod.distance_to_endpoints(f),
                "distance_to_optimal": metrics_mod.distance_to_optimal(f),
                "path_correction_cost": metrics_mod.path_correction_cost(f),
            }
            report[path] = entry
            for name, value in entry.items():
                print(f"{path} {name} {value:.6f}")
    if "ckpt_a" in cfg or "ckpt_b" in cfg:
        a_path, b_path = require(cfg, "ckpt_a", "ckpt_b")
        a, b = load_checkpoint(a_path), load_checkpoint(b_path)
        report["weights"] = {
            "cosine_similarity": cosine_similarity(a, b),
            "l1_mean_distance": l1_mean_distance(a, b),
        }
        for name, value in report["weights"].items():
            print(f"{name} {value:.6f}")
    if "rep_a" in cfg or "rep_b" in cfg:
        a_path, b_path = require(cfg, "rep_a", "rep_b")
        value = metrics_mod.cka(rep_matrix_from_csv(a_path), rep_matrix_from_csv(b_path))
        report["cka"] = value
        print(f"cka {value:.6f}")
    if not report:
        raise ConfigError("missing required key: frontier (or ckpt_a/ckpt_b, rep_a/rep_b)")
    if "out_dir" in cfg:
        os.makedirs(cfg["out_dir"], exist_ok=True)
        atomic_write_json(os.path.join(cfg["out_dir"], "metrics.json"), report)
    return 0


def _result_frontier(path):
    """The frontier of the patch_result.json at `path`, in the fraction unit
    `patch` writes. A malformed file is a ValueError naming it."""
    with open(path) as f:
        try:
            obj = json.load(f)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    try:
        return Frontier.from_records(obj["frontier"]["points"], unit="fraction")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: no frontier points ({type(exc).__name__}: {exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_report(cfg):
    (results_dir,) = require(cfg, "results_dir")
    out_dir = cfg.get("out_dir", results_dir)
    # (label, Frontier) pairs: patch results, then named baselines passed through.
    series, baselines = [], []
    for root, _, files in os.walk(results_dir):
        # A sequential run's patch_result.json repeats its first order seed's
        # frontier, so the per-seed files beside it stand in for it.
        per_seed = any(name.startswith("patch_result_seed") for name in files)
        for name in sorted(files):
            path = os.path.join(root, name)
            if per_seed and name == "patch_result.json":
                continue
            if name.startswith("patch_result") and name.endswith(".json"):
                label = os.path.splitext(os.path.relpath(path, results_dir))[0]
                series.append((label.replace(os.sep, "/"), _result_frontier(path)))
            elif name.startswith("baseline_") and name.endswith(".csv"):
                baselines.append((os.path.splitext(name)[0],
                                  Frontier.from_csv(path, unit="fraction")))
    if not series:
        print("no patch results found", file=sys.stderr)
        return RUNTIME_ERROR
    os.makedirs(out_dir, exist_ok=True)

    # Average across experiments at shared alpha values.
    by_alpha = {}
    for _, f in series:
        for p in f.points:
            by_alpha.setdefault(p.alpha, []).append(p)
    average = Frontier([
        FrontierPoint(alpha, float(np.mean([p.supported_acc for p in pts])),
                      float(np.mean([p.patching_acc for p in pts])))
        for alpha, pts in by_alpha.items() if len(pts) == len(series)
    ], unit="fraction")

    rows = [["series", "alpha", "supported_acc", "patching_acc"]]
    for label, f in [*series, ("average", average), *baselines]:
        rows.extend([label, p.alpha, p.supported_acc, p.patching_acc] for p in f.points)
    scatter_path = os.path.join(out_dir, "scatter.csv")
    with atomic_open(scatter_path) as f:
        f.write("".join(",".join(str(v) for v in row) + "\n" for row in rows))
    atomic_write_json(
        os.path.join(out_dir, "report.json"),
        {"experiments": [label for label, _ in series], "scatter_csv": scatter_path},
    )
    print(f"wrote {scatter_path}")
    return 0


COMMANDS = {
    "gen-tasks": cmd_gen_tasks,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "patch": cmd_patch,
    "metrics": cmd_metrics,
    "report": cmd_report,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    commands = ", ".join(sorted(COMMANDS))
    if "-h" in argv or "--help" in argv:
        print(f"usage: paintkit {{{commands}}} [--config FILE] [--key value ...]\n\n{__doc__}")
        return 0
    try:
        if not argv or argv[0] not in COMMANDS:
            got = f"; got {argv[0]!r}" if argv else ""
            raise ConfigError(f"expected a command, one of {commands}{got}")
        overrides = parse_overrides(argv[1:])
        cfg = cast_config(parse_config(overrides.pop("config", None), overrides))
        return COMMANDS[argv[0]](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CheckpointError, ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
