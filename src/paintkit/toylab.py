"""Desk-scale lab: synthetic Gaussian-cluster tasks, a small MLP classifier
with a frozen procedural class-embedding head (so any class id is usable
without training), an AdamW fine-tuning recipe with warmup + cosine
annealing, and the baseline trade-off frontiers (early stopping, L2-to-init,
learning-rate ladder, EMA)."""

from __future__ import annotations

import csv
import functools
import math
import types
from dataclasses import dataclass, field, replace

import numpy as np

from ._atomic import atomic_open
from .metrics import Frontier, FrontierPoint
from .tensors import Checkpoint, CheckpointError, _is_int, _repeated, check_count, check_real

_EMBED_STREAM = 0x0E03BEDD  # fixed stream id so embeddings depend only on the class id
_HEAD_CACHE_SIZE = 256  # distinct (class ids, dim) heads kept per process
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
_INT64_MAX = 2**63 - 1  # the largest label or class id a task may hold


def class_embedding(class_id: int, dim: int) -> np.ndarray:
    """Deterministic unit-norm embedding for a global class id."""
    check_count("class_id", class_id, 0)
    check_count("dim", dim, 1)
    rng = np.random.default_rng([_EMBED_STREAM, int(class_id)])
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def head_matrix(class_ids, dim) -> np.ndarray:
    """Frozen head: one unit-norm embedding row per class id.

    Built once per (class ids, dim) and then shared, so the array is
    read-only. A tuple of ids is its own cache key; numpy and Python ints
    with the same value share an entry."""
    return _frozen_head(tuple(class_ids), dim)


@functools.lru_cache(maxsize=_HEAD_CACHE_SIZE)
def _frozen_head(class_ids, dim):
    head = np.stack([class_embedding(c, dim) for c in class_ids])
    head.flags.writeable = False
    return head


@dataclass(frozen=True, eq=False)
class TaskDataset:
    """Labeled examples in a global class-id space: `inputs` holds one feature
    row per entry of the 1-D `labels`, and `class_ids` names each of the
    task's classes once, in head-row order. `row_splits` names each
    row's split (train, val, test or any other name; "" for none), as the
    task CSV's split column does; `splits` maps each named split to its
    ascending row indices. Checked once and frozen: the task takes the arrays
    it is given and makes them read-only in place, `splits` is a read-only
    mapping, and tasks compare by identity. `split_arrays` of a split with no
    rows is a ValueError that names the task and the split."""

    name: str
    inputs: np.ndarray
    labels: np.ndarray
    class_ids: tuple
    row_splits: np.ndarray
    splits: types.MappingProxyType = field(init=False, repr=False)

    def __post_init__(self):
        def check_int(kind, value, note=""):
            if not _is_int(value):
                raise ValueError(f"task {self.name!r}: {kind} {value!r} is not an integer{note}")
            if not -_INT64_MAX - 1 <= int(value) <= _INT64_MAX:
                raise ValueError(f"task {self.name!r}: {kind} {value} is outside int64")

        # Checked before the casts below, which would truncate 1.7 to 1 and
        # wrap a uint64 2**63 to -2**63. Signed numpy integers all fit int64.
        labels = np.asarray(self.labels)
        if labels.dtype.kind != "i":
            for label in labels.ravel().tolist():
                check_int("label", label, f" (labels of dtype {labels.dtype})")
        class_ids = tuple(self.class_ids)
        for c in class_ids:
            check_int("class id", c)
        own = functools.partial(object.__setattr__, self)
        own("inputs", _owned(self.inputs, np.float64))
        own("labels", _owned(labels, np.int64))
        own("class_ids", tuple(int(c) for c in class_ids))
        # Python strings: a fixed-width numpy str array drops trailing NULs.
        own("row_splits", _owned(self.row_splits, object))
        if self.inputs.ndim != 2 or self.labels.ndim != 1 or len(self.inputs) != len(self.labels):
            raise ValueError(f"task {self.name!r}: inputs of shape {self.inputs.shape} for "
                             f"labels of shape {self.labels.shape}; need one input row per label")
        if not set(self.labels.tolist()) <= set(self.class_ids):
            raise ValueError(f"task {self.name!r}: label outside class_ids")
        if (repeated := _repeated(self.class_ids)) is not None:
            raise ValueError(f"task {self.name!r}: class id {repeated} is repeated")
        if min(self.class_ids, default=0) < 0:
            raise ValueError(f"task {self.name!r}: class id {min(self.class_ids)} is negative")
        if not np.isfinite(self.inputs).all():
            row, col = np.argwhere(~np.isfinite(self.inputs))[0]
            raise ValueError(f"task {self.name!r}: row {row}: feature {col} is not finite")
        if self.row_splits.shape != self.labels.shape:
            raise ValueError(f"task {self.name!r}: {self.row_splits.size} split cells "
                             f"for {self.labels.size} rows")
        # Compared as Python strings: numpy would cast a str to np.str_ first.
        rows = {}
        for i, split in enumerate(self.row_splits.tolist()):
            rows.setdefault(split, []).append(i)
        splits = {s: np.array(idx, dtype=np.int64) for s, idx in rows.items() if s}
        for array in (self.inputs, self.labels, self.row_splits, *splits.values()):
            array.flags.writeable = False
        own("splits", types.MappingProxyType(splits))

    @property
    def dim(self):
        return self.inputs.shape[1]

    def split_arrays(self, split):
        if split not in self.splits:
            raise ValueError(f"task {self.name!r} has no {split!r} split")
        idx = self.splits[split]
        return self.inputs[idx], self.labels[idx]

    def to_csv(self, path):
        with atomic_open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "split", "label"] + [f"f{i}" for i in range(self.dim)])
            for i, (split, label, x) in enumerate(zip(self.row_splits, self.labels, self.inputs)):
                w.writerow([i, split, int(label)] + [repr(float(v)) for v in x])

    @classmethod
    def from_csv(cls, path, name=None):
        inputs, labels, row_splits = [], [], []
        with open(path, newline="") as f:
            reader = csv.reader(f)
            try:
                header = next(reader, [])
                if header[:3] != ["id", "split", "label"]:
                    raise ValueError(f"{path}: task CSV header must start with id,split,label")
                if len(header) == 3:
                    raise ValueError(f"{path}: no feature columns")
                for row in reader:
                    if len(row) != len(header):
                        raise ValueError(
                            f"{path}:{reader.line_num}: expected {len(header)} fields, "
                            f"got {len(row)}"
                        )
                    try:
                        i, split, label = int(row[0]), row[1], int(row[2])
                        features = [float(v) for v in row[3:]]
                        if not (i == len(labels) and 0 <= label <= _INT64_MAX
                                and all(map(math.isfinite, features))):
                            raise ValueError
                    except ValueError:
                        raise ValueError(
                            _bad_cell(path, reader.line_num, header, row, len(labels))) from None
                    inputs.append(features)
                    labels.append(label)
                    row_splits.append(split)
            except (UnicodeDecodeError, csv.Error) as exc:
                raise ValueError(f"{path}: {exc}") from None
        labels = np.asarray(labels, dtype=np.int64)
        class_ids = tuple(sorted(set(labels.tolist())))
        # An owning array: a reshaped one would be a view, which the task copies.
        inputs = (np.asarray(inputs, dtype=np.float64) if inputs
                  else np.empty((0, len(header) - 3)))
        return cls(name or str(path), inputs, labels, class_ids, row_splits)


def _owned(values, dtype):
    """`values` as an array of `dtype` that owns its data: the array itself
    when it already is one, else a new array. A view is copied, because
    making a view read-only leaves its base writable."""
    array = np.asarray(values, dtype=dtype)
    return array if array.flags.owndata else array.copy()


def _bad_cell(path, line, header, row, position):
    """Name the first cell of a task-CSV row that does not parse, or that
    holds an id other than the row's 0-based `position`, a label that is not
    a class id (an int64 >= 0), or a feature that is not finite."""
    for col, (name, cell) in enumerate(zip(header, row)):
        if col == 1:  # the split name is free text
            continue
        cast = int if col in (0, 2) else float
        try:
            value = cast(cell)
        except ValueError:
            return f"{path}:{line}: column {name!r}: not a valid {cast.__name__}: {cell!r}"
        if col == 0 and value != position:
            kind = f"id (row position {position})"
        elif col == 2 and not 0 <= value <= _INT64_MAX:
            kind = "class id"
        elif col > 2 and not math.isfinite(value):
            kind = "finite float"
        else:
            continue
        return f"{path}:{line}: column {name!r}: not a valid {kind}: {cell!r}"


def generate_tasks(seed, num_classes, dim, samples_per_class, noise_scale, partition):
    """Synthetic tasks: one Gaussian cluster per class, 80/10/10 splits.

    `partition` is a list of class-id sets (disjoint, integer ids in
    [0, num_classes)); one TaskDataset is produced per set. The seed (>= 0)
    and the counts (num_classes >= 2, dim >= 1, samples_per_class >= 10) take
    `check_count`, and noise_scale (>= 0) `check_real`, in that order before any draw.
    """
    check_count("seed", seed, 0)
    check_count("num_classes", num_classes, 2)
    check_count("dim", dim, 1)
    check_count("samples_per_class", samples_per_class, 10)
    check_real("noise_scale", noise_scale, 0)
    partition = [list(group) for group in partition]
    bad = [c for group in partition for c in group if not _is_int(c)]
    if bad:
        raise ValueError(f"partition: class id {bad[0]!r} is not an integer")
    partition = [sorted(map(int, group)) for group in partition]
    flat = [c for group in partition for c in group]
    if len(flat) != len(set(flat)):
        raise ValueError("duplicate class across tasks")
    for group in partition:
        if len(group) < 2:
            raise ValueError("each task needs at least 2 classes")
        for c in group:
            if not 0 <= c < num_classes:
                raise ValueError(f"class id {c} outside [0, {num_classes})")
    n_train = int(round(0.8 * samples_per_class))
    n_val = int(round(0.1 * samples_per_class))
    class_splits = (["train"] * n_train + ["val"] * n_val
                    + ["test"] * (samples_per_class - n_train - n_val))
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, dim)) * 2.0
    tasks = []
    for t, group in enumerate(partition):
        inputs = [means[c] + rng.standard_normal((samples_per_class, dim)) * noise_scale
                  for c in group]
        tasks.append(
            TaskDataset(
                name=f"task{t}",
                inputs=np.concatenate(inputs),
                labels=np.repeat(group, samples_per_class),
                class_ids=tuple(group),
                row_splits=class_splits * len(group),
            )
        )
    return tasks


def merge_tasks(tasks, name="merged"):
    """Concatenate tasks into one (labels keep their global ids).

    An example (features and label) held by two of the tasks is rejected;
    repeats within one task are kept.
    """
    inputs = np.concatenate([t.inputs for t in tasks])
    labels = np.concatenate([t.labels for t in tasks])
    if len(tasks) > 1:  # a single task shares nothing with another
        rows = set()
        for t in tasks:
            own = {tuple(x) + (int(y),) for x, y in zip(t.inputs, t.labels)}
            shared = rows & own
            if shared:
                raise ValueError(f"duplicate example across tasks (label {min(shared)[-1]})")
            rows |= own
    class_ids = tuple(sorted({c for t in tasks for c in t.class_ids}))
    row_splits = np.concatenate([t.row_splits for t in tasks])
    return TaskDataset(name, inputs, labels, class_ids, row_splits)


@dataclass(frozen=True)
class TrainConfig:
    """Fine-tuning settings, checked once when built; replace() makes a checked copy.
    Counts (`check_count`): iterations, warmup and seed >= 0; batch_size, embed_dim and each
    hidden width >= 1. Reals (`check_real`): lr, weight_decay, l2_init >= 0; logit_scale > 0."""
    iterations: int = 500
    batch_size: int = 64
    lr: float = 1e-3
    warmup: int = 50
    weight_decay: float = 0.1
    seed: int = 0
    l2_init: float = 0.0
    constant_lr: bool = False
    hidden: tuple = (64, 64)
    embed_dim: int = 16
    logit_scale: float = 20.0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        for name in ("iterations", "warmup", "seed"):
            check_count(name, getattr(self, name), 0)
        for name in ("batch_size", "embed_dim"):
            check_count(name, getattr(self, name), 1)
        for width in self.hidden:
            check_count("hidden width", width, 1)
        if self.warmup > self.iterations:
            raise ValueError("warmup must be <= iterations")
        for name in ("lr", "weight_decay", "l2_init"):
            check_real(name, getattr(self, name), 0)
        check_real("logit_scale", self.logit_scale, 0, strict=True)


def lr_schedule(step, config: TrainConfig) -> float:
    """Linear warmup from 0 to peak, then cosine annealing to exactly 0 at
    the final step (or constant at peak when constant_lr is set)."""
    peak = config.lr
    if config.warmup > 0 and step < config.warmup:
        return peak * step / config.warmup
    if config.constant_lr:
        return peak
    last = config.iterations - 1
    if last <= config.warmup:
        return 0.0 if step >= last and step > 0 else peak
    progress = (step - config.warmup) / (last - config.warmup)
    return peak * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class TrainRecord:
    final: Checkpoint
    losses: list


def _meta_value(ckpt, key, cast):
    """ckpt.meta[key] converted by `cast`; a CheckpointError names a missing
    or unparsable key."""
    if key not in ckpt.meta:
        raise CheckpointError(f"checkpoint metadata has no {key!r}")
    try:
        return cast(ckpt.meta[key])
    except ValueError:
        raise CheckpointError(
            f"checkpoint metadata {key!r} is not a valid {cast.__name__}: {ckpt.meta[key]!r}"
        ) from None


class ToyModel:
    """Small MLP encoder with tanh activations, unit-normalized output
    features, and a frozen procedural class-embedding head.

    logits(x) = logit_scale * normalize(encoder(x)) @ head(class_ids).T
    Trainable weights live in a Checkpoint; the head never does.
    """

    def __init__(self, ckpt: Checkpoint):
        self.ckpt = ckpt
        self.logit_scale = _meta_value(ckpt, "logit_scale", float)
        check_real("checkpoint metadata 'logit_scale'", self.logit_scale, 0, True, CheckpointError)
        self.embed_dim = _meta_value(ckpt, "embed_dim", int)
        self.n_layers = _meta_value(ckpt, "n_layers", int)
        self._names = _layer_names(ckpt, self.n_layers, self.embed_dim)

    @classmethod
    def init(cls, seed, in_dim, hidden=(64, 64), embed_dim=16, logit_scale=20.0):
        dims = [in_dim, *hidden, embed_dim]
        check_count("seed", seed, 0)
        check_count("in_dim", in_dim, 1)
        for width in dims[1:-1]:
            check_count("hidden width", width, 1)
        check_count("embed_dim", embed_dim, 1)
        check_real("logit_scale", logit_scale, 0, strict=True)
        rng = np.random.default_rng(seed)
        tensors = {}
        for i in range(len(dims) - 1):
            fan_in = dims[i]
            tensors[f"enc.w{i}"] = rng.standard_normal((dims[i + 1], dims[i])) / math.sqrt(fan_in)
            tensors[f"enc.b{i}"] = np.zeros(dims[i + 1])
        meta = {
            "logit_scale": repr(float(logit_scale)),
            "embed_dim": str(embed_dim),
            "n_layers": str(len(dims) - 1),
        }
        return cls(Checkpoint(tensors, meta))

    @property
    def in_dim(self):
        """The number of input features the encoder takes."""
        return self.ckpt[self._names[0][0]].shape[1]

    @property
    def hidden(self):
        """The widths of the encoder's hidden layers."""
        return tuple(self.ckpt[w].shape[0] for w, _ in self._names[:-1])

    def with_weights(self, ckpt: Checkpoint):
        """Same architecture and head, different trainable weights."""
        return ToyModel(ckpt.with_meta(self.ckpt.meta))

    def _layers(self, ckpt=None):
        if ckpt is None:
            ckpt = self.ckpt
        return [(ckpt[w], ckpt[b]) for w, b in self._names]

    def _forward(self, x, layers, acts=None):
        """The output norms and the unit-normalized output features. Given a
        list `acts`, appends the input of every layer ([x, h1, ...]) to it for
        backprop; otherwise each layer's input is dropped as soon as the next
        layer is computed. Weights with a leading stack axis (see
        Checkpoint.views) give every output that axis too."""
        z = np.asarray(x, dtype=np.float64)
        for i, (w, b) in enumerate(layers):
            if acts is not None:
                acts.append(z)
            z = _affine(z, w, b)
            if i < len(layers) - 1:
                np.tanh(z, out=z)
        norms = np.sqrt(np.add.reduce(z * z, axis=-1, keepdims=True))  # np.linalg.norm
        z /= norms
        return norms, z

    def encode(self, x, ckpt=None):
        """Unit-normalized encoder features for a batch of inputs."""
        return self._forward(x, self._layers(ckpt))[1]

    def logits(self, x, class_ids, ckpt=None):
        head = head_matrix(class_ids, self.embed_dim)
        u = self.encode(x, ckpt)
        u *= self.logit_scale
        return u @ head.T

    def loss_and_grad(self, ckpt, x, y_local, class_ids, out=None):
        """Mean cross-entropy over scaled-similarity logits; returns (loss, grads).
        `ckpt` is a Checkpoint or any mapping from tensor name to weights.
        `out`, a mapping from every tensor name to a writable float64 array of
        that tensor's shape, receives the gradients and is returned as grads."""
        head = head_matrix(class_ids, self.embed_dim)
        layers = self._layers(ckpt)
        acts = []
        norms, u = self._forward(x, layers, acts)
        n = u.shape[0]
        rows = np.arange(n)
        shifted = self.logit_scale * u @ head.T
        shifted -= np.maximum.reduce(shifted, axis=1, keepdims=True)
        p = np.exp(shifted)
        sums = np.add.reduce(p, axis=1)
        loss = float(-(np.add.reduce(shifted[rows, y_local] - np.log(sums)) / n))

        p /= sums[:, None]  # softmax, then turned in place into dloss/dlogits
        p[rows, y_local] -= 1.0
        p /= n
        p *= self.logit_scale
        dzi = p @ head  # dloss/du, then in place dloss/dz
        dzi -= np.add.reduce(dzi * u, axis=1, keepdims=True) * u
        dzi /= norms

        grads = {} if out is None else out
        for i in range(self.n_layers - 1, -1, -1):
            w, b = self._names[i]
            grads[w] = np.matmul(dzi.T, acts[i], out=grads.get(w))
            grads[b] = np.add.reduce(dzi, axis=0, out=grads.get(b))
            if i > 0:
                dtanh = acts[i] * acts[i]
                np.subtract(1.0, dtanh, out=dtanh)
                dzi = dzi @ layers[i][0]
                dzi *= dtanh
        return loss, grads


def _affine(x, w, b):
    """x @ w.T + b, broadcast over a leading stack axis of w and b."""
    z = x @ w.swapaxes(-1, -2)
    z += b[..., None, :]
    return z


def _layer_names(ckpt, n_layers, embed_dim):
    """The (weight, bias) tensor names of each encoder layer, after checking
    them against the weights: the checkpoint holds exactly these tensors, the
    shapes chain from layer to layer, and the last layer outputs `embed_dim`
    features. A CheckpointError names the offending key."""
    if n_layers < 1:
        raise CheckpointError(f"checkpoint metadata 'n_layers' must be >= 1, got {n_layers}")
    names = [(f"enc.w{i}", f"enc.b{i}") for i in range(n_layers)]
    width = None
    for w, b in names:
        for name in (w, b):
            if name not in ckpt:
                raise CheckpointError(f"checkpoint has no tensor {name!r} "
                                      f"(metadata 'n_layers' is {n_layers})")
        shape = ckpt[w].shape
        if len(shape) != 2 or 0 in shape:
            raise CheckpointError(f"tensor {w!r} has shape {shape}; expected a matrix "
                                  f"with no zero dimension")
        if width is not None and shape[1] != width:
            raise CheckpointError(f"tensor {w!r} has shape {shape}; the layer before "
                                  f"outputs {width} features")
        if ckpt[b].shape != shape[:1]:
            raise CheckpointError(f"tensor {b!r} has shape {ckpt[b].shape}; "
                                  f"expected {shape[:1]}")
        width = shape[0]
    if width != embed_dim:
        raise CheckpointError(f"checkpoint metadata 'embed_dim' is {embed_dim}, but "
                              f"tensor {names[-1][0]!r} outputs {width} features")
    known = {name for layer in names for name in layer}
    extra = next((name for name in ckpt if name not in known), None)
    if extra is not None:
        raise CheckpointError(f"tensor {extra!r} is not an encoder layer "
                              f"(metadata 'n_layers' is {n_layers})")
    return names


def _check_width(model, task):
    """Reject a task whose examples do not have the model's input width."""
    if task.dim != model.in_dim:
        raise ValueError(f"task {task.name!r} has {task.dim} features, but the "
                         f"model takes {model.in_dim} inputs")


def _local_labels(labels, class_ids):
    index = {c: i for i, c in enumerate(class_ids)}
    return np.asarray([index[int(y)] for y in labels], dtype=np.int64)


def _train(model: ToyModel, task: TaskDataset, config: TrainConfig, every, ema_decay=None):
    """Train a float64 copy of `model.ckpt`: AdamW with decoupled weight decay
    on cross-entropy plus an optional L2-to-init penalty toward `model.ckpt`;
    linear warmup then cosine annealing. Returns (snapshots, losses): the loss
    of every step, and checkpoints keyed by step at step 0, every `every`
    steps and the last step, of the weights or, given `ema_decay`, of their
    EMA shadow (ema = decay * ema + (1 - decay) * weights after each step), in
    the dtype of `model.ckpt`."""
    _check_width(model, task)
    rng = np.random.default_rng(config.seed)
    x_all, y_all = task.split_arrays("train")
    y_local = _local_labels(y_all, task.class_ids)
    batch = min(config.batch_size, len(y_local))

    start = model.ckpt
    params = start.flat().copy()
    tracked = params if ema_decay is None else params.copy()
    snapshots, losses = {0: start._like(tracked)}, []
    live = start.views(params)  # name -> view of params, for loss_and_grad
    # Flat float64 vectors, all updated in place: the gradient (written
    # through its views by loss_and_grad), the AdamW moments, and two
    # scratch vectors for the update.
    grad = np.empty_like(params)
    grad_out = start.views(grad)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    upd = np.empty_like(params)
    tmp = np.empty_like(params)
    b1, b2 = _ADAM_BETAS

    # A diverging run is reported once, by the non-finite-loss error.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.iterations):
            idx = rng.choice(len(y_local), size=batch, replace=False)
            loss, _ = model.loss_and_grad(live, x_all[idx], y_local[idx], task.class_ids,
                                          out=grad_out)
            if config.l2_init > 0.0:
                # loss += l2_init * ||params - start||^2, summed per tensor in name
                # order (one flat sum would round differently); grad += its gradient
                delta = np.subtract(params, start.flat(), out=tmp)
                for d in start.views(delta).values():
                    loss += float(config.l2_init * np.sum(d * d))
                grad += np.multiply(delta, 2.0 * config.l2_init, out=delta)
            if not math.isfinite(loss):
                raise RuntimeError(f"non-finite loss at step {step}: {loss}")
            lr = lr_schedule(step, config)
            t = step + 1
            # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
            m *= b1
            m += np.multiply(grad, 1 - b1, out=tmp)
            v *= b2
            np.multiply(grad, 1 - b2, out=tmp)
            v += np.multiply(tmp, grad, out=tmp)
            # params -= lr * (mhat / (sqrt(vhat) + eps) + weight_decay * params)
            np.divide(v, 1 - b2**t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += _ADAM_EPS
            np.divide(m, 1 - b1**t, out=upd)
            upd /= tmp
            upd += np.multiply(params, config.weight_decay, out=tmp)
            upd *= lr
            params -= upd
            losses.append(loss)
            if ema_decay is not None:
                tracked *= ema_decay
                tracked += params * (1 - ema_decay)
            if t % every == 0 or t == config.iterations:
                snapshots[t] = start._like(tracked)
    return snapshots, losses


def finetune(model: ToyModel, task: TaskDataset, config: TrainConfig) -> TrainRecord:
    """Train `model` on the task's train split (see `_train`); returns the
    final checkpoint, `_train`'s last snapshot in the dtype of `model.ckpt`,
    and the loss of every step. At 0 iterations that is the start weights."""
    snapshots, losses = _train(model, task, config, max(config.iterations, 1))
    return TrainRecord(snapshots[config.iterations], losses)


def pretrain(config: TrainConfig, base_tasks) -> ToyModel:
    """Train a freshly initialized encoder on the union of base tasks;
    returns the zero-shot analog model."""
    if not base_tasks:
        raise ValueError("base_tasks must be nonempty")
    merged = merge_tasks(list(base_tasks), name="pretrain")
    model = ToyModel.init(
        config.seed, merged.dim, config.hidden, config.embed_dim, config.logit_scale
    )
    record = finetune(model, merged, config)
    return model.with_weights(record.final)


def evaluate(model: ToyModel, task: TaskDataset, split="test") -> float:
    """Fraction of argmax-correct predictions over the task's class set: the
    one-row case of `evaluate_stack`."""
    (acc,) = evaluate_stack(model, model.ckpt.flat()[None], task, split)
    return acc


def evaluate_stack(model: ToyModel, stack, task: TaskDataset, split="test") -> list:
    """`evaluate` for many weight sets at once: one accuracy per row of
    `stack`, an (A, num_params) array of flat weights laid out like
    `model.ckpt` (see Checkpoint.views), all scored in one forward pass."""
    stack = np.asarray(stack)
    if stack.ndim != 2 or stack.shape[1] != model.ckpt.num_params:
        raise ValueError(f"weight stack of shape {stack.shape} does not hold rows of "
                         f"{model.ckpt.num_params} parameters")
    _check_width(model, task)
    x, y = task.split_arrays(split)
    logits = model.logits(x, task.class_ids, model.ckpt.views(stack))
    pred = np.asarray(task.class_ids)[logits.argmax(axis=-1)]
    # np.mean's float64 sum and division, without its Python-level overhead
    return (np.add.reduce(pred == y, axis=-1, dtype=np.float64) / len(y)).tolist()


_L2_LADDER = (10.0, 1.0, 0.1, 0.01, 0.001)
_LR_LADDER = (0.0, 0.01, 0.1, 0.3, 1.0)  # factors applied to the configured peak rate
_EMA_DECAY = 0.99


def baseline_frontiers(model, task, supported_task, config: TrainConfig, snapshot_every):
    """Accuracy trade-off frontiers for the non-interpolation baselines. Early
    stopping and the EMA shadow (decay 0.99, constant learning rate) are
    scored every `snapshot_every` steps, an integer > 0.

    Each frontier's alpha slot carries the baseline's own sweep parameter
    rescaled to [0, 1]; the dict key labels the method.
    """
    check_count("snapshot_every", snapshot_every, 1)
    # Each frontier needs its alpha=1 point.
    check_count("iterations for baseline frontiers", config.iterations, 1)
    for t in (task, supported_task):
        _check_width(model, t)

    def frontier(points):
        """The val frontier of {alpha: checkpoint}, each task scored as one stack."""
        stack = np.stack([ckpt.flat() for ckpt in points.values()])
        sup = evaluate_stack(model, stack, supported_task, "val")
        pat = evaluate_stack(model, stack, task, "val")
        return Frontier(list(map(FrontierPoint, points, sup, pat)), "fraction")

    out = {}
    snapshots, _ = _train(model, task, config, snapshot_every)
    out["early_stopping"] = frontier({s / config.iterations: c for s, c in snapshots.items()})
    out["l2_init"] = frontier({i / (len(_L2_LADDER) - 1):
                               finetune(model, task, replace(config, l2_init=lam)).final
                               for i, lam in enumerate(_L2_LADDER)})
    # The x1.0 rung trains the early-stopping run's config: reuse its weights.
    # At lr 0 every update is +-0, so the x0.0 rung scores the start weights.
    out["learning_rate"] = frontier({
        i / (len(_LR_LADDER) - 1):
        model.ckpt if f == 0.0 else snapshots[config.iterations] if f == 1.0
        else finetune(model, task, replace(config, lr=config.lr * f)).final
        for i, f in enumerate(_LR_LADDER)})
    ema, _ = _train(model, task, replace(config, constant_lr=True), snapshot_every, _EMA_DECAY)
    out["ema"] = frontier({s / config.iterations: c for s, c in ema.items()})
    return out
