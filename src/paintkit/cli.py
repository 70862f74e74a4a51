"""Command-line surface: task generation, pretraining, fine-tuning, patching,
frontier metrics, and plot-ready report emission.

Configuration is a flat key=value text file; any key can be overridden on
the command line as `--key value`, the key spelt as in the file. Exit codes:
0 success, 1 usage/config error, 2 runtime/data error.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import metrics as metrics_mod
from .metrics import Frontier, FrontierPoint
from ._atomic import atomic_open
from .pipeline import PatchSpec, check_selection, run_patch, split_task
from .tensors import (
    CheckpointError,
    check_alphas,
    check_real,
    cosine_similarity,
    l1_mean_distance,
    load_checkpoint,
    save_checkpoint,
)
from .toylab import (TaskDataset, ToyModel, TrainConfig, evaluate, finetune, generate_tasks,
                     pretrain)

USAGE_ERROR = 1
RUNTIME_ERROR = 2

# A start:stop:step alpha_grid may expand to at most this many points.
MAX_GRID_POINTS = 10_001
# gen-tasks may draw at most this many float64 values (1 GiB) for the class
# means, and as many again for the examples.
MAX_TASK_VALUES = 2**27

class ConfigError(Exception):
    pass


def parse_config(path=None, overrides=()):
    cfg = {}
    if path:
        try:
            with open(path) as f:
                lines = f.readlines()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        for lineno, line in enumerate(lines, 1):
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
    for i in range(0, len(tokens), 2):
        option = tokens[i]
        if not option.startswith("--"):
            raise ConfigError(f"unexpected argument: {option}")
        if "=" in option:
            raise ConfigError(f"{option}: expected --key value")
        if i + 1 == len(tokens):
            raise ConfigError(f"missing value for {option}")
        overrides[option[2:]] = tokens[i + 1]
    return overrides


def require(cfg, *keys):
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"missing required key: {key}")
    return [cfg[k] for k in keys]


def parse_grid(text):
    """'start:stop:step' or comma-separated values, the alphas as check_alphas returns them."""
    try:
        values = [float(v) for v in text.split(":" if ":" in text else ",")]
    except ValueError:
        raise ConfigError(f"alpha_grid is not numeric: {text!r}") from None
    if ":" in text and len(values) != 3:
        raise ConfigError(f"alpha_grid range must be start:stop:step: {text!r}")
    try:  # a range's start, stop and step, before it is expanded
        alphas = check_alphas(values[:2] if ":" in text else values)
        if ":" in text:
            check_real("step", values[2], 0, strict=True)
    except ValueError as exc:
        raise ConfigError(f"alpha_grid {text!r}: {exc}") from None
    if ":" not in text:
        return alphas
    (start, stop), step = alphas, values[2]
    if start > stop:
        raise ConfigError(f"alpha_grid range start is above its stop: {text!r}")
    # Bounded before the list is built: a tiny step would otherwise ask for
    # billions of points.
    if (stop - start) / step + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"alpha_grid has more than {MAX_GRID_POINTS} points: {text!r}")
    # No point passes stop: the tolerance absorbs the float error of a step
    # that divides the range, as 0.1 does [0, 1], and a point it lets past
    # stop is stop.
    n = math.floor((stop - start) / step + 1e-9)
    return [min(round(start + i * step, 10), stop) for i in range(n + 1)]


def parse_partition(text):
    """Class partition like '0-9|10-14|15-19' or '0,1,2|3,4,5': per group, a
    list of ranges of class ids. The ranges stay unexpanded, so that gen-tasks
    can check them against num_classes before it builds any list of ids."""
    groups = []
    for part in text.split("|"):
        spans = []
        for item in part.split(","):
            lo, hi = item.split("-") if "-" in item else (item, item)
            spans.append(range(int(lo), int(hi) + 1))
        groups.append(spans)
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


def paths(text):
    """Comma-separated paths, none of them empty; kept as the text."""
    if "" in text.split(","):
        raise ValueError(f"empty path in {text!r}")
    return text


# Every config key, with the cast from its text to the value commands read.
KEYS = {
    # general
    "seed": non_negative_int, "out_dir": str,
    # task generation
    "num_classes": int, "dim": int, "samples_per_class": int, "noise_scale": finite_float,
    "tasks": parse_partition, "split_source": paths,
    # training: the TrainConfig fields a command's output depends on
    "iterations": int, "batch_size": int, "lr": finite_float, "warmup": int,
    "weight_decay": finite_float, "l2_init": finite_float, "constant_lr": truthy,
    "hidden": int_list, "embed_dim": int, "logit_scale": finite_float,
    # patching
    "strategy": str, "alpha_grid": parse_grid, "search": str, "order_seeds": non_negative_ints,
    "budget": int, "group_weighting": truthy, "zs_checkpoint": paths,
    "patching_tasks": paths, "supported_tasks": paths, "pretrain_tasks": paths, "task": paths,
    # metrics
    "frontier": paths, "ckpt_a": paths, "ckpt_b": paths,
    # report
    "results_dir": paths,
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


def load_model(path, cfg):
    """The ToyModel in the checkpoint at `path`. The checkpoint fixes the
    model's shape and logit scale, so a hidden, embed_dim or logit_scale
    setting in `cfg` that differs from it is a usage error instead of being
    ignored. Unset keys go unchecked. A CheckpointError names `path`."""
    ckpt = load_checkpoint(path)
    try:
        model = ToyModel(ckpt)
    except CheckpointError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    for key in ("hidden", "embed_dim", "logit_scale"):
        held = getattr(model, key)
        if key in cfg and cfg[key] != held:
            raise ConfigError(f"{key} is {cfg[key]}, but {path} has {key} {held}")
    return model


def one_path(cfg, key):
    """cfg[key], a key that names one task CSV; comma-separated paths are a
    usage error naming the key."""
    count = len(cfg[key].split(","))
    if count != 1:
        raise ConfigError(f"{key} takes one path, got {count}: {cfg[key]!r}")
    return cfg[key]


def check_out_dir(out_dir):
    """Reject an out_dir that cannot be a directory: the path is empty, or
    it or the nearest of its ancestors that exists is a file. Checked before
    any command runs, so a command never trains only to fail at its first write."""
    if not out_dir:
        raise ConfigError("out_dir is empty")
    head = out_dir
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        where = "" if head == out_dir else f" (its ancestor {head})"
        raise ConfigError(f"out_dir {out_dir}{where} is not a directory")


def task_name(path):
    """The name of the task in the CSV at `path`: its file name's stem."""
    return os.path.splitext(os.path.basename(path))[0]


def load_tasks(paths_text, width=None):
    """The tasks of comma-separated CSV paths. A task without a train, val or
    test split, or without `width` features per example (default: the first
    task's count), is a ValueError naming its file."""
    tasks = []
    for path in paths_text.split(","):
        task = TaskDataset.from_csv(path, name=task_name(path))
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
    # Each command creates its output directory only once it has something to
    # write, so a run that fails leaves none behind.
    if "split_source" in cfg:
        (task,) = load_tasks(one_path(cfg, "split_source"))
        tasks = split_task(task, cfg.get("seed", 0))
    else:
        seed, num_classes, dim, samples, noise, spans = require(
            cfg, "seed", "num_classes", "dim", "samples_per_class", "noise_scale", "tasks")
        # A range may name 10**12 ids: each is checked by its bounds, unexpanded.
        for group in spans:
            outside = [max(r.start, num_classes) for r in group if r and r[-1] >= num_classes]
            if outside:
                raise ConfigError(f"class id {min(outside)} outside [0, {num_classes})")
        # Bounded before anything is allocated, as the alpha grid is.
        # Counted from the bounds: len() fails on a range longer than sys.maxsize.
        classes = sum(max(0, r.stop - r.start) for group in spans for r in group)
        for count, what in ((num_classes * dim, "num_classes x dim"),
                            (classes * samples * dim, "task classes x samples_per_class x dim")):
            if count > MAX_TASK_VALUES:
                raise ConfigError(f"gen-tasks would draw {count} values ({what}), "
                                  f"more than {MAX_TASK_VALUES}")
        # Expanded lazily, after generate_tasks has checked its other arguments.
        partition = [itertools.chain(*group) for group in spans]
        tasks = _as_usage_error(generate_tasks, seed, num_classes, dim, samples, noise, partition)
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
    model = pretrain(tc, tasks)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "zero_shot.ckpt")
    save_checkpoint(model.ckpt, path)
    print(f"wrote {path}")
    return 0


def cmd_finetune(cfg):
    ckpt_path, _, out_dir = require(cfg, "zs_checkpoint", "task", "out_dir")
    task_path = one_path(cfg, "task")
    tc = train_config(cfg)
    model = load_model(ckpt_path, cfg)
    (task,) = load_tasks(task_path, model.in_dim)
    record = finetune(model, task, tc)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"finetuned_{task.name}.ckpt")
    save_checkpoint(record.final, path)
    print(f"wrote {path}")
    return 0


def _result_json(result, strategy, inputs):
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "strategy": strategy,
        "inputs": inputs,
        "coefficients": list(result.coefficients),
        "val_accuracies": result.val_accuracies,
        "test_accuracies": result.test_accuracies,
        "averaged_val_accuracies": result.averaged_val_accuracies,
        "averaged_test_accuracies": result.averaged_test_accuracies,
        "frontier": {"unit": result.frontier.unit, "points": result.frontier.to_records()},
        "provenance": {k: v for k, v in result.provenance.items()},
    }


def patch_results(directory):
    """The sorted names of the patch results (patch_result*.json) in
    `directory`; none when it is absent or cannot be listed."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith("patch_result") and n.endswith(".json"))


def cmd_patch(cfg):
    ckpt_path, patching_text, supported_text, out_dir = require(
        cfg, "zs_checkpoint", "patching_tasks", "supported_tasks", "out_dir"
    )
    selection = {k: cfg[k] for k in SELECTION_KEYS if k in cfg}
    # Every usage error is reported before anything is written, loaded or trained.
    # `report` reads every patch result in a directory, so one run owns it.
    earlier = patch_results(out_dir)
    if earlier:
        raise ConfigError(f"{os.path.join(out_dir, earlier[0])} exists: "
                          "out_dir holds an earlier patch run")
    _as_usage_error(check_selection, selection)
    first = {}
    for path in [*patching_text.split(","), *supported_text.split(",")]:
        name = task_name(path)
        if name in first:
            raise ConfigError(f"two tasks are named {name!r}: {first[name]} and {path}")
        first[name] = path
    tc = train_config(cfg)
    model = load_model(ckpt_path, cfg)
    patching = load_tasks(patching_text, model.in_dim)
    supported = load_tasks(supported_text, model.in_dim)
    spec = PatchSpec(model=model, patching_tasks=patching, supported_tasks=supported,
                     train=tc, **selection)
    result = run_patch(spec)
    # What the run started from, as given; out_dir is left out so that a run's
    # results do not depend on where they are written.
    inputs = {"zs_checkpoint": ckpt_path, "patching_tasks": patching_text,
              "supported_tasks": supported_text}
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(result.patched, os.path.join(out_dir, "patched.ckpt"))
    result.frontier.to_csv(os.path.join(out_dir, "frontier.csv"))
    atomic_write_json(os.path.join(out_dir, "patch_result.json"),
                      _result_json(result, spec.strategy, inputs))
    for seed, seed_result in zip(spec.order_seeds, result.per_seed):
        atomic_write_json(
            os.path.join(out_dir, f"patch_result_seed{seed}.json"),
            _result_json(seed_result, spec.strategy, inputs),
        )
    print(f"strategy={spec.strategy} coefficients={list(result.coefficients)}")
    print(f"wrote {os.path.join(out_dir, 'patch_result.json')}")
    return 0


def cmd_metrics(cfg):
    # Every key is checked before any file is read, and every metric computed
    # before the first line is printed: a run that fails prints nothing.
    pair = "ckpt_a" in cfg or "ckpt_b" in cfg or "task" in cfg
    if pair:
        a_path, b_path = require(cfg, "ckpt_a", "ckpt_b")
        task_path = one_path(cfg, "task") if "task" in cfg else None
    elif "frontier" not in cfg:
        raise ConfigError("missing required key: frontier (or ckpt_a/ckpt_b)")
    report, lines = {}, []
    for path in cfg["frontier"].split(",") if "frontier" in cfg else ():
        f = Frontier.from_csv(path)
        report[path] = {
            "distance_to_endpoints": metrics_mod.distance_to_endpoints(f),
            "distance_to_optimal": metrics_mod.distance_to_optimal(f),
            "path_correction_cost": metrics_mod.path_correction_cost(f),
        }
        lines += [f"{path} {name} {value:.6f}" for name, value in report[path].items()]
    if pair:
        # Only with a task are the checkpoints models, held to the model settings.
        if task_path:
            model_a, model_b = load_model(a_path, cfg), load_model(b_path, cfg)
            a, b = model_a.ckpt, model_b.ckpt
        else:
            a, b = load_checkpoint(a_path), load_checkpoint(b_path)
        report["weights"] = {
            "cosine_similarity": cosine_similarity(a, b),
            "l1_mean_distance": l1_mean_distance(a, b),
        }
        lines += [f"{name} {value:.6f}" for name, value in report["weights"].items()]
    if "task" in cfg:
        # How far the encoder's features moved, and each model's accuracy, on
        # the split `patch` reports on. With a zero-shot ckpt_a and a ckpt_b
        # patched on classes disjoint from the task's, this is broad transfer.
        (task,) = load_tasks(task_path, model_a.in_dim)
        x, _ = task.split_arrays("test")
        report["cka"] = metrics_mod.cka(model_a.encode(x), model_b.encode(x))
        report["test_accuracy"] = {"ckpt_a": evaluate(model_a, task, "test"),
                                   "ckpt_b": evaluate(model_b, task, "test")}
        lines.append(f"cka {report['cka']:.6f}")
        lines += [f"test_accuracy_{key[-1]} {value:.6f}"
                  for key, value in report["test_accuracy"].items()]
    print("\n".join(lines))
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
    # (label, Frontier) pairs of the patch results.
    series = []
    for root, _, _ in os.walk(results_dir):
        names = patch_results(root)
        # A sequential run's patch_result.json repeats its first order seed's
        # frontier, so the per-seed files beside it stand in for it.
        if any(name.startswith("patch_result_seed") for name in names):
            names = [name for name in names if name != "patch_result.json"]
        for name in names:
            path = os.path.join(root, name)
            label = os.path.splitext(os.path.relpath(path, results_dir))[0]
            series.append((label.replace(os.sep, "/"), _result_frontier(path)))
    if not series:
        print(f"no patch results found in {results_dir}", file=sys.stderr)
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
    for label, f in [*series, ("average", average)]:
        rows.extend([label, p.alpha, p.supported_acc, p.patching_acc] for p in f.points)
    scatter_path = os.path.join(out_dir, "scatter.csv")
    with atomic_open(scatter_path, newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
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
        if "out_dir" in cfg:
            check_out_dir(cfg["out_dir"])
        return COMMANDS[argv[0]](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CheckpointError, ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
