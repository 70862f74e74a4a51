"""Span tracing from outside the library.

The tracer replaces each traced paintkit function with a timing wrapper at
every binding the package holds (``pipeline`` imports ``evaluate`` and
``finetune`` by name, ``cli`` imports ``run_patch``, ...), so a call is seen
whichever module it is made from. Methods are wrapped on their class.

A span is ``(op, name, start, end, parent, dur, attrs)``. ``dur`` is the wall
time inside the call minus the tracer's own bookkeeping in nested wrappers, so
a span's self time is its ``dur`` minus the ``dur`` of its direct children.
Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter


def _finetune_attrs(tracer, args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"steps": config.iterations}


def _head_matrix_attrs(tracer, args, kwargs):
    class_ids = args[0] if args else kwargs["class_ids"]
    dim = args[1] if len(args) > 1 else kwargs["dim"]
    ids = class_ids if isinstance(class_ids, tuple) else tuple(class_ids)
    return {"key": hash((ids, dim))}


def _evaluate_attrs(tracer, args, kwargs):
    model = args[0] if args else kwargs["model"]
    task = args[1] if len(args) > 1 else kwargs["task"]
    split = args[2] if len(args) > 2 else kwargs.get("split", "test")
    return {"rows": int(len(task.splits[split])),
            "key": f"{tracer.weights_digest(model.ckpt)}|{task.name}|{split}"}


def _save_attrs(tracer, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _load_attrs(tracer, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, attrs). A dotted attribute is a method.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "load_tasks", "cli.load_tasks", None),
    ("pipeline", "run_patch", "pipeline.patch", None),
    ("pipeline", "patch_single", "pipeline.patch", None),
    ("pipeline", "patch_joint", "pipeline.patch", None),
    ("pipeline", "patch_sequential", "pipeline.patch", None),
    ("pipeline", "patch_parallel", "pipeline.patch", None),
    # The objective closures are pipeline code; the search calls them
    # through SearchObjective, so each call is one search evaluation.
    ("search", "SearchObjective.__call__", "pipeline.objective", None),
    ("search", "grid_search_1d", "search.grid_search_1d", None),
    ("search", "uniform_search_parallel", "search.uniform_search_parallel", None),
    ("search", "black_box_search", "search.black_box_search", None),
    ("search", "exhaustive_search_2d", "search.exhaustive_search_2d", None),
    ("metrics", "sweep_to_frontier", "metrics.sweep_to_frontier", None),
    ("toylab", "finetune", "toylab.finetune", _finetune_attrs),
    ("toylab", "ToyModel.loss_and_grad", "toylab.loss_and_grad", None),
    ("toylab", "head_matrix", "toylab.head_matrix", _head_matrix_attrs),
    ("toylab", "evaluate", "toylab.evaluate", _evaluate_attrs),
    ("tensors", "Checkpoint.__init__", "tensors.Checkpoint", None),
    ("tensors", "lerp", "tensors.lerp", None),
    ("tensors", "multi_combine", "tensors.multi_combine", None),
    ("tensors", "save_checkpoint", "tensors.save_checkpoint", _save_attrs),
    ("tensors", "load_checkpoint", "tensors.load_checkpoint", _load_attrs),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._book = 0.0  # seconds spent in wrapper bookkeeping so far
        self._digests = {}

    def weights_digest(self, ckpt):
        """Content digest of a checkpoint's weights. Views made by
        ``with_weights`` share their arrays, so the digest is memoised per
        first array for the current operation (which keeps that array alive)."""
        first = next(iter(ckpt.items()))[1]
        hit = self._digests.get(id(first))
        if hit is None or hit[0] is not first:
            h = hashlib.blake2b(digest_size=16)
            for name, arr in ckpt.items():
                h.update(name.encode())
                h.update(memoryview(arr))
            hit = self._digests[id(first)] = (first, h.hexdigest())
        return hit[1]

    def _wrap(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = _perf()
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(idx)
            book0 = tracer._book
            t0 = _perf()
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = _perf()
                tracer._stack.pop()
                extra = attrs(tracer, args, kwargs) if attrs and done else None
                dur = (t1 - t0) - (tracer._book - book0)
                tracer.spans[idx] = (tracer.op, name, t0, t1, parent, dur, extra)
                tracer._book += (t0 - enter) + (_perf() - t1)

        return wrapper

    @contextmanager
    def installed(self, op):
        """Trace every target while the block runs, as operation `op`."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "paintkit" or n.startswith("paintkit.")]
        patched = []
        try:
            for module_name, attr, name, attrs in TARGETS:
                module = sys.modules[f"paintkit.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, original, attrs))
                    patched.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, attrs)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
            self.op = op
            yield self
        finally:
            self.op = None
            self._digests.clear()
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)

    def export(self, start):
        """Spans recorded from index `start` on, as JSON-ready lists with
        parents relative to `start` (for sending out of a child process)."""
        return [[op, name, t0, t1, None if parent is None else parent - start, dur, extra]
                for op, name, t0, t1, parent, dur, extra in self.spans[start:]]

    def extend(self, spans, op):
        """Adopt spans recorded elsewhere (a child process) as operation `op`."""
        offset = len(self.spans)
        for _, name, t0, t1, parent, dur, extra in spans:
            parent = None if parent is None else parent + offset
            self.spans.append((op, name, t0, t1, parent, dur, extra))

    def write(self, path):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                op, name, t0, t1, parent, dur, extra = s
                f.write(json.dumps({"id": i, "op": op, "name": name, "start": t0,
                                    "end": t1, "parent": parent, "dur": dur,
                                    "attrs": extra}) + "\n")


COUNTED = [f"{name}.{field}" for name in (
    "toylab.finetune", "toylab.loss_and_grad", "toylab.head_matrix", "toylab.evaluate",
    "tensors.Checkpoint", "tensors.lerp", "tensors.multi_combine",
    "tensors.save_checkpoint", "tensors.load_checkpoint", "metrics.sweep_to_frontier",
) for field in ("calls", "s")] + [
    "toylab.finetune.steps", "toylab.evaluate.self_s", "toylab.evaluate.rows",
    "tensors.save_checkpoint.bytes", "tensors.load_checkpoint.bytes",
    "search.evals", "pipeline.patch.s", "cli.load_tasks.s",
]


def op_metrics(spans):
    """Per-layer metrics of one operation from its (index, span) pairs."""
    child_dur = defaultdict(float)
    child_dur_by_name = defaultdict(lambda: defaultdict(float))
    for _, s in spans:
        parent = s[4]
        if parent is not None:
            child_dur[parent] += s[5]
            child_dur_by_name[parent][s[1]] += s[5]
    names = {i: s[1] for i, s in spans}
    m = dict.fromkeys(COUNTED, 0.0)
    m["_finetune_outside_lg"] = 0.0
    layer_self = defaultdict(float)
    heads, evals = set(), set()
    head_repeats = eval_repeats = 0
    for i, s in spans:
        _, name, _, _, parent, dur, extra = s
        self_time = dur - child_dur[i]
        layer_self[name.split(".")[0]] += self_time
        if name == "toylab.finetune":
            m["toylab.finetune.calls"] += 1
            m["toylab.finetune.s"] += dur
            m["toylab.finetune.steps"] += extra["steps"] if extra else 0
            m["_finetune_outside_lg"] += dur - child_dur_by_name[i]["toylab.loss_and_grad"]
        elif name == "toylab.loss_and_grad":
            m["toylab.loss_and_grad.calls"] += 1
            m["toylab.loss_and_grad.s"] += dur
        elif name == "toylab.head_matrix":
            m["toylab.head_matrix.calls"] += 1
            m["toylab.head_matrix.s"] += dur
            key = extra["key"] if extra else None
            head_repeats += key in heads
            heads.add(key)
        elif name == "toylab.evaluate":
            m["toylab.evaluate.calls"] += 1
            m["toylab.evaluate.s"] += dur
            m["toylab.evaluate.self_s"] += self_time
            m["toylab.evaluate.rows"] += extra["rows"] if extra else 0
            key = extra["key"] if extra else None
            eval_repeats += key in evals
            evals.add(key)
        elif name.startswith("tensors."):
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += dur
            if name in ("tensors.save_checkpoint", "tensors.load_checkpoint"):
                m[f"{name}.bytes"] += extra["bytes"] if extra else 0
        elif name == "pipeline.objective":
            m["search.evals"] += 1
        elif name == "metrics.sweep_to_frontier":
            m["metrics.sweep_to_frontier.calls"] += 1
            m["metrics.sweep_to_frontier.s"] += dur
        elif name == "pipeline.patch":
            if parent is None or names.get(parent) != "pipeline.patch":
                m["pipeline.patch.s"] += dur
        elif name == "cli.load_tasks":
            m["cli.load_tasks.s"] += dur
    steps = m["toylab.finetune.steps"]
    m["toylab.finetune.step_self_us"] = (
        m.pop("_finetune_outside_lg") / steps * 1e6 if steps else 0.0)
    calls = m["toylab.head_matrix.calls"]
    m["toylab.head_matrix.repeat_ratio"] = head_repeats / calls if calls else 0.0
    calls = m["toylab.evaluate.calls"]
    m["toylab.evaluate.repeat_ratio"] = eval_repeats / calls if calls else 0.0
    m["search.self_s"] = layer_self["search"]
    m["pipeline.self_s"] = layer_self["pipeline"]
    m["cli.self_s"] = layer_self["cli"]
    return m


def layer_metrics(tracer, ops):
    """Median over the traced operations `ops` of each per-layer metric."""
    by_op = {op: [] for op in ops}
    for i, s in enumerate(tracer.spans):
        if s[0] in by_op:
            by_op[s[0]].append((i, s))
    per_op = [op_metrics(spans) for spans in by_op.values()]
    return {k: statistics.median(p[k] for p in per_op) for k in per_op[0]}
