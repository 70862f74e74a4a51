import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from operator import setitem

import numpy as np
import pytest

from paintkit import (
    Checkpoint,
    CheckpointError,
    TaskDataset,
    ToyModel,
    TrainConfig,
    baseline_frontiers,
    class_embedding,
    evaluate,
    finetune,
    generate_tasks,
    head_matrix,
    lr_schedule,
    merge_tasks,
    pretrain,
    split_task,
)
from paintkit import toylab
from paintkit.toylab import _frozen_head, _train, evaluate_stack


def small_tasks(seed=0, partition=((0, 1, 2), (3, 4)), noise=0.3, spc=20):
    return generate_tasks(seed, num_classes=5, dim=6, samples_per_class=spc,
                          noise_scale=noise, partition=partition)


def quick_cfg(**kw):
    base = dict(iterations=40, batch_size=16, lr=1e-2, warmup=5,
                hidden=(16,), embed_dim=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def reference_loss_and_grad(model, ckpt, x, y_local, class_ids, init_ckpt=None, l2_init=0.0):
    """ToyModel.loss_and_grad as first written, every intermediate a new
    array. The library's in-place version must give the same bits."""
    head = head_matrix(class_ids, model.embed_dim)
    layers = [(ckpt[f"enc.w{i}"], ckpt[f"enc.b{i}"]) for i in range(model.n_layers)]
    acts = [np.asarray(x, dtype=np.float64)]
    for w, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ w.T + b))
    w, b = layers[-1]
    z = acts[-1] @ w.T + b
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    u = z / norms
    n = u.shape[0]
    logits = model.logit_scale * u @ head.T

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    p = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.mean(shifted[np.arange(n), y_local] - np.log(exp.sum(axis=1))))

    dlogits = p.copy()
    dlogits[np.arange(n), y_local] -= 1.0
    dlogits /= n
    du = model.logit_scale * dlogits @ head
    dz = (du - (du * u).sum(axis=1, keepdims=True) * u) / norms

    last = model.n_layers - 1
    grads = {f"enc.w{last}": dz.T @ acts[-1], f"enc.b{last}": dz.sum(axis=0)}
    da = dz @ layers[-1][0]
    for i in range(last - 1, -1, -1):
        a = acts[i + 1]
        dzi = da * (1.0 - a * a)
        grads[f"enc.w{i}"] = dzi.T @ acts[i]
        grads[f"enc.b{i}"] = dzi.sum(axis=0)
        if i > 0:
            da = dzi @ layers[i][0]

    if l2_init > 0.0 and init_ckpt is not None:
        for name, w in ckpt.items():
            delta = w - init_ckpt[name]
            loss += float(l2_init * np.sum(delta * delta))
            grads[name] = grads[name] + 2.0 * l2_init * delta
    return loss, grads


def reference_adamw(model, t, cfg, ema_decay, every):
    """finetune and the baselines' trajectories as first written: AdamW
    tensor by tensor on new arrays, with reference_loss_and_grad, an EMA
    shadow and snapshots every `every` steps. The library must give the same
    bits. Returns the losses, the final weights, and the snapshots and EMA
    snapshots by step."""
    rng = np.random.default_rng(cfg.seed)
    x_all, y_all = t.split_arrays("train")
    y_local = np.searchsorted(t.class_ids, y_all)
    params = {n: a.copy() for n, a in model.ckpt.items()}
    init = Checkpoint(params)
    m = {n: np.zeros_like(a) for n, a in params.items()}
    v = {n: np.zeros_like(a) for n, a in params.items()}
    ema = {n: a.copy() for n, a in params.items()}
    b1, b2, eps = 0.9, 0.999, 1e-8
    losses, snapshots, ema_snapshots = [], {}, {}
    for step in range(cfg.iterations):
        idx = rng.choice(len(y_local), size=cfg.batch_size, replace=False)
        loss, grads = reference_loss_and_grad(
            model, params, x_all[idx], y_local[idx], t.class_ids, init, cfg.l2_init)
        losses.append(loss)
        lr, t_ = lr_schedule(step, cfg), step + 1
        for n, g in grads.items():
            m[n] = b1 * m[n] + (1 - b1) * g
            v[n] = b2 * v[n] + (1 - b2) * g * g
            mhat, vhat = m[n] / (1 - b1**t_), v[n] / (1 - b2**t_)
            params[n] = params[n] - lr * (
                mhat / (np.sqrt(vhat) + eps) + cfg.weight_decay * params[n])
            if ema_decay is not None:
                ema[n] = ema_decay * ema[n] + (1 - ema_decay) * params[n]
        if t_ % every == 0 or t_ == cfg.iterations:
            snapshots[t_], ema_snapshots[t_] = Checkpoint(params), Checkpoint(ema)
    return losses, Checkpoint(params), snapshots, ema_snapshots


def bits(ckpt):
    return [(n, a.tobytes()) for n, a in ckpt.items()]


class TestFrozenHead:
    def test_unit_norm_and_deterministic(self):
        for c in (0, 1, 7, 123456):
            v = class_embedding(c, 16)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(v, class_embedding(c, 16))

    def test_distinct_ids_distinct_vectors(self):
        m = head_matrix(range(10), 16)
        assert m.shape == (10, 16)
        gram = m @ m.T
        off_diag = gram[~np.eye(10, dtype=bool)]
        assert np.abs(off_diag).max() < 0.999

    def test_independent_of_call_order(self):
        a = class_embedding(5, 8)
        class_embedding(99, 8)
        assert np.array_equal(a, class_embedding(5, 8))

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            class_embedding(-1, 8)


class TestHeadCache:
    def test_repeat_call_returns_same_read_only_array(self):
        head = head_matrix((0, 3, 7), 8)
        assert head_matrix((0, 3, 7), 8) is head
        assert not head.flags.writeable
        with pytest.raises(ValueError):
            head[0, 0] = 1.0

    def test_bit_equal_to_stacked_embeddings(self):
        ids = (2, 11, 5, 40)
        expected = np.stack([class_embedding(c, 12) for c in ids])
        head = head_matrix(ids, 12)
        assert head.shape == (4, 12) and head.dtype == np.float64
        assert head.tobytes() == expected.tobytes()

    def test_id_containers_share_bits(self):
        ref = np.stack([class_embedding(c, 6) for c in range(4)]).tobytes()
        for ids in ([0, 1, 2, 3], range(4), (0, 1, 2, 3), np.arange(4),
                    tuple(np.int32(c) for c in range(4))):
            assert head_matrix(ids, 6).tobytes() == ref

    def test_dims_do_not_collide(self):
        ids = (1, 2, 3)
        for dim in (4, 5, 9):
            head = head_matrix(ids, dim)
            assert head.shape == (3, dim)
            assert head.tobytes() == np.stack([class_embedding(c, dim) for c in ids]).tobytes()

    def test_negative_id_is_rejected_and_not_cached(self):
        before = _frozen_head.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                head_matrix((0, -1), 7)
        assert _frozen_head.cache_info().currsize == before

    def test_cache_is_bounded(self):
        assert _frozen_head.cache_info().maxsize == 256


class TestModelMetadata:
    @pytest.mark.parametrize("key", ["logit_scale", "embed_dim", "n_layers"])
    def test_missing_key_is_checkpoint_error(self, key):
        ckpt = ToyModel.init(0, 4, hidden=(8,), embed_dim=4).ckpt
        meta = {k: v for k, v in ckpt.meta.items() if k != key}
        with pytest.raises(CheckpointError, match=key):
            ToyModel(ckpt.with_meta(meta))

    @pytest.mark.parametrize("key", ["logit_scale", "embed_dim", "n_layers"])
    def test_unparsable_key_is_checkpoint_error(self, key):
        ckpt = ToyModel.init(0, 4, hidden=(8,), embed_dim=4).ckpt
        with pytest.raises(CheckpointError, match=key):
            ToyModel(ckpt.with_meta({**ckpt.meta, key: "x"}))

    @pytest.mark.parametrize("meta, key", [
        ({"n_layers": "3"}, "'enc.w2'"),
        ({"n_layers": "0"}, "'n_layers'"),
        ({"n_layers": "1"}, "'embed_dim'"),
        ({"embed_dim": "0"}, "'embed_dim'"),
        ({"embed_dim": "7"}, "'embed_dim'"),
    ], ids=["missing_layer", "no_layers", "too_few_layers", "embed_dim_0", "embed_dim_7"])
    def test_metadata_disagreeing_with_weights_is_checkpoint_error(self, meta, key):
        ckpt = ToyModel.init(0, 4, hidden=(8,), embed_dim=4).ckpt
        with pytest.raises(CheckpointError, match=key):
            ToyModel(ckpt.with_meta({**ckpt.meta, **meta}))

    @pytest.mark.parametrize("name, value, key", [
        ("enc.w1", np.zeros((4, 7)), "'enc.w1'"),   # does not take layer 0's 8 outputs
        ("enc.w0", np.zeros(32), "'enc.w0'"),       # not a matrix
        ("enc.b0", np.zeros(7), "'enc.b0'"),        # not one bias per output
        ("enc.b1", np.zeros((4, 1)), "'enc.b1'"),
        ("extra", np.zeros(3), "'extra'"),          # not a layer of the model
    ], ids=["w_columns", "w_rank", "b_length", "b_rank", "extra_tensor"])
    def test_weights_that_do_not_chain_are_checkpoint_error(self, name, value, key):
        ckpt = ToyModel.init(0, 4, hidden=(8,), embed_dim=4).ckpt
        tensors = {**dict(ckpt.items()), name: value}
        with pytest.raises(CheckpointError, match=key):
            ToyModel(Checkpoint(tensors, ckpt.meta))


class TestGenerateTasks:
    def test_deterministic(self):
        a = small_tasks(seed=3)
        b = small_tasks(seed=3)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.inputs, tb.inputs)
            assert np.array_equal(ta.labels, tb.labels)

    def test_split_sizes(self):
        (t, _) = small_tasks(spc=20)
        # 3 classes * 20 examples, 80/10/10 per class
        assert len(t.splits["train"]) == 48
        assert len(t.splits["val"]) == 6
        assert len(t.splits["test"]) == 6
        all_idx = np.concatenate([t.splits[s] for s in ("train", "val", "test")])
        assert sorted(all_idx.tolist()) == list(range(60))

    def test_zero_noise_collapses_clusters(self):
        (t, _) = small_tasks(noise=0.0)
        for c in t.class_ids:
            rows = t.inputs[t.labels == c]
            assert np.ptp(rows, axis=0).max() == 0.0

    def test_class_ids_match_partition(self):
        a, b = small_tasks()
        assert a.class_ids == (0, 1, 2)
        assert b.class_ids == (3, 4)

    def test_rejects_duplicate_class(self):
        with pytest.raises(ValueError):
            generate_tasks(0, 5, 4, 20, 0.3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize("args, message", [
        ((0, 6, 4, 10.5), "samples_per_class must be an integer, got 10.5"),
        ((0, 6, 4.0, 10), "dim must be an integer, got 4.0"),
        ((0, 6.0, 4, 10), "num_classes must be an integer, got 6.0"),
        ((1.5, 6, 4, 10), "seed must be an integer, got 1.5"),
        ((True, 6, 4, 10), "seed must be an integer, got True"),
        ((0, 6, True, 10), "dim must be an integer, got True"),
        ((-1, 6, 4, 10), "seed must be >= 0, got -1"),
        ((0, 6, 4, 10, [(0, 1.7, 2), (3, 4, 5)]), "partition: class id 1.7 is not an integer"),
        ((0, 6, 4, 10, [(0, 1, 2), (3, True, 5)]),
         "partition: class id True is not an integer"),
        ((0, 6, 4, 10, [(0, 1, 2), (3, 4, np.float64(5.0))]),
         f"partition: class id {np.float64(5.0)!r} is not an integer"),
    ], ids=["float_samples_per_class", "float_dim", "float_num_classes", "float_seed",
            "bool_seed", "bool_dim", "negative_seed", "fractional_class_id", "bool_class_id",
            "numpy_float_class_id"])
    def test_counts_seed_and_class_ids_are_integers(self, args, message):
        # Each failed later with a TypeError that named no argument, or, for a
        # class id, was truncated to another class without a word.
        seed, num_classes, dim, spc, *partition = args
        partition = partition[0] if partition else [(0, 1, 2), (3, 4, 5)]
        with pytest.raises(ValueError) as info:
            generate_tasks(seed, num_classes, dim, spc, 0.3, partition)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_takes_numpy_integers(self):
        ints = (np.int64(2), np.int32(6), np.uint8(4), np.int16(10))
        made = generate_tasks(*ints, 0.3, [(np.int64(0), 1, 2), (3, 4, np.uint8(5))])
        for a, b in zip(made, generate_tasks(2, 6, 4, 10, 0.3, [(0, 1, 2), (3, 4, 5)])):
            assert a.class_ids == b.class_ids
            assert all(type(c) is int for c in a.class_ids)
            assert a.inputs.tobytes() == b.inputs.tobytes()
            assert np.array_equal(a.labels, b.labels)

    def test_rejects_out_of_range_class(self):
        with pytest.raises(ValueError):
            generate_tasks(0, 3, 4, 20, 0.3, [(0, 5)])

    @pytest.mark.parametrize("cells", [59, 61], ids=["short", "long"])
    def test_split_column_length_mismatch_rejected(self, cells):
        (t, _) = small_tasks()
        row_splits = (list(t.row_splits) * 2)[:cells]
        with pytest.raises(ValueError, match=re.escape(
                f"task 'task0': {cells} split cells for 60 rows")):
            TaskDataset(t.name, t.inputs, t.labels, t.class_ids, row_splits)

    @pytest.mark.parametrize("column, cell, kind", [
        (0, "7.5", "int"), (2, "x", "int"), (4, "abc", "float"),
        (4, "nan", "finite float"), (4, "inf", "finite float"), (4, "-inf", "finite float"),
        (0, str(2**63), "id (row position 2)"), (0, str(-2**63 - 1), "id (row position 2)"),
        (2, "99999999999999999999", "class id"), (2, "-5", "class id"),
    ])
    def test_csv_non_numeric_cell_names_line_and_column(self, tmp_path, column, cell, kind):
        (t, _) = small_tasks()
        path = tmp_path / "task.csv"
        t.to_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[3].split(",")
        row[column] = cell
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        expected = f"task.csv:4: column '{header[column]}': not a valid {kind}: '{cell}'"
        with pytest.raises(ValueError, match=re.escape(expected)):
            TaskDataset.from_csv(path)

    def test_negative_label_rejected(self):
        (t, _) = small_tasks()
        labels = np.where(t.labels == 0, -5, t.labels)
        class_ids = (-5, *t.class_ids[1:])
        with pytest.raises(ValueError, match=re.escape(
                "task 'task0': class id -5 is negative")):
            TaskDataset(t.name, t.inputs, labels, class_ids, t.row_splits)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_task_and_row(self, value):
        (t, _) = small_tasks()
        inputs = t.inputs.copy()
        inputs[7, 2] = value
        with pytest.raises(ValueError, match=re.escape(
                "task 'task0': row 7: feature 2 is not finite")):
            TaskDataset(t.name, inputs, t.labels, t.class_ids, t.row_splits)

    @pytest.mark.parametrize("header, message", [
        ("id,label,split,f0", "task CSV header must start with id,split,label"),
        ("", "task CSV header must start with id,split,label"),
        ("id,split,label", "no feature columns"),
    ], ids=["misordered", "empty", "no_features"])
    def test_csv_bad_header_names_the_file(self, tmp_path, header, message):
        path = tmp_path / "task.csv"
        path.write_text(f"{header}\n0,train,0\n" if header else "")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            TaskDataset.from_csv(path)

    def test_header_only_csv_keeps_its_feature_count(self, tmp_path):
        (t, _) = small_tasks()
        path = tmp_path / "task.csv"
        t.to_csv(path)
        path.write_text(path.read_text().splitlines()[0] + "\n")
        assert TaskDataset.from_csv(path).inputs.shape == (0, t.dim)

    def test_csv_roundtrip(self, tmp_path):
        (t, _) = small_tasks()
        path = tmp_path / "task.csv"
        t.to_csv(path)
        u = TaskDataset.from_csv(path, name=t.name)
        assert np.array_equal(t.inputs, u.inputs)
        assert np.array_equal(t.labels, u.labels)
        assert t.class_ids == u.class_ids
        assert list(t.row_splits) == list(u.row_splits)
        for s in ("train", "val", "test"):
            assert np.array_equal(t.splits[s], u.splits[s])


def _built_tasks(tmp_path):
    """A task from each way the library builds one."""
    a, b = small_tasks()
    a.to_csv(tmp_path / "a.csv")
    return [a, TaskDataset.from_csv(tmp_path / "a.csv"), merge_tasks([a, b]),
            split_task(a, 7).task_a]


class TestFrozenTask:
    @pytest.mark.parametrize("write, error", [
        (lambda t: setitem(t.inputs, (0, 0), 1.0), ValueError),
        (lambda t: setitem(t.labels, 0, 1), ValueError),
        (lambda t: setitem(t.row_splits, 0, "test"), ValueError),
        (lambda t: setitem(t.splits["train"], 0, 1), ValueError),
        (lambda t: setitem(t.splits, "train", np.arange(3)), TypeError),
        (lambda t: setattr(t, "splits", {}), FrozenInstanceError),
        (lambda t: setattr(t, "row_splits", np.array(["test"] * len(t.labels))),
         FrozenInstanceError),
    ], ids=["inputs", "labels", "row_splits", "split_index", "splits_entry", "splits",
            "set_row_splits"])
    def test_writes_raise(self, tmp_path, write, error):
        # `splits` is derived from `row_splits` once, so a write to either
        # would make training and to_csv disagree about a row's split.
        for t in _built_tasks(tmp_path):
            before = (t.inputs.copy(), t.labels.copy(), list(t.row_splits),
                      {s: idx.copy() for s, idx in t.splits.items()})
            with pytest.raises(error):
                write(t)
            assert np.array_equal(t.inputs, before[0])
            assert np.array_equal(t.labels, before[1])
            assert list(t.row_splits) == before[2]
            assert t.splits.keys() == before[3].keys()
            for s, idx in before[3].items():
                assert np.array_equal(t.splits[s], idx)

    def test_takes_the_arrays_it_is_given_without_a_copy(self):
        (t, _) = small_tasks()
        inputs, labels = t.inputs.copy(), t.labels.copy()
        u = TaskDataset("u", inputs, labels, t.class_ids, t.row_splits)
        assert u.inputs is inputs and u.labels is labels and u.row_splits is t.row_splits
        assert not inputs.flags.writeable and not labels.flags.writeable
        # Tasks compare by identity, so a task can key a dict.
        v = TaskDataset("u", inputs, labels, t.class_ids, t.row_splits)
        assert u == u and u != v and {u: 1, v: 2}[u] == 1

    def test_copies_a_view_it_is_given(self, tmp_path):
        # Freezing a view would leave its base writable, and a write through
        # the base would put a NaN into a task that rejects one when built.
        (t, _) = small_tasks()
        big = np.hstack([t.inputs, np.zeros((len(t.labels), 2))])
        u = TaskDataset("u", big[:, :6], t.labels, t.class_ids, t.row_splits)
        big[7, 2] = np.nan
        assert np.array_equal(u.inputs, t.inputs)
        assert big.flags.writeable and not u.inputs.flags.writeable
        # Every task the library builds owns its arrays, so none is copied.
        for task in _built_tasks(tmp_path):
            for array in (task.inputs, task.labels, task.row_splits):
                assert array.flags.owndata

    def test_rejects_a_repeated_class_id(self):
        # A repeat gave the head two equal rows, one of which no label used.
        (t, _) = small_tasks()
        with pytest.raises(ValueError) as info:
            TaskDataset("dup", t.inputs.copy(), t.labels.copy(), (0, 1, 1, 2), t.row_splits)
        assert type(info.value) is ValueError
        assert str(info.value) == "task 'dup': class id 1 is repeated"

    @pytest.mark.parametrize("inputs, labels, shapes", [
        (np.zeros((5, 3)), np.zeros(4, int), "(5, 3) for labels of shape (4,)"),
        (np.zeros(4), np.zeros(4, int), "(4,) for labels of shape (4,)"),
        (np.zeros((4, 3, 1)), np.zeros(4, int), "(4, 3, 1) for labels of shape (4,)"),
        (np.zeros((4, 3)), np.zeros((4, 1), int), "(4, 3) for labels of shape (4, 1)"),
    ], ids=["extra_input_row", "1d_inputs", "3d_inputs", "2d_labels"])
    def test_rejects_inputs_that_are_not_one_row_per_label(self, inputs, labels, shapes):
        # An extra row was dropped by split_arrays without a word, and 1-D
        # inputs failed later, in `dim`, with an IndexError.
        with pytest.raises(ValueError) as info:
            TaskDataset("t", inputs, labels, (0,), ["train"] * 4)
        assert type(info.value) is ValueError
        assert str(info.value) == (f"task 't': inputs of shape {shapes}; "
                                   "need one input row per label")
        assert inputs.flags.writeable and labels.flags.writeable

    @pytest.mark.parametrize("labels, class_ids, message", [
        (np.array([0, 1, 1, 0]), (0, 1.7), "class id 1.7 is not an integer"),
        (np.array([0, 1, 1, 0]), (0, True), "class id True is not an integer"),
        (np.array([0.0, 1.7, 1.2, 0.0]), (0, 1),
         "label 0.0 is not an integer (labels of dtype float64)"),
        (np.array([True, False, True, False]), (0, 1),
         "label True is not an integer (labels of dtype bool)"),
    ], ids=["fractional_class_id", "bool_class_id", "float_labels", "bool_labels"])
    def test_rejects_class_ids_and_labels_that_are_not_integers(self, labels, class_ids,
                                                                  message):
        # Each was cast to an int without a word: id 1.7 and label 1.7 became
        # class 1, and label True class 1.
        inputs = np.zeros((4, 3))
        with pytest.raises(ValueError) as info:
            TaskDataset("t", inputs, labels, class_ids, ["train"] * 4)
        assert type(info.value) is ValueError
        assert str(info.value) == f"task 't': {message}"
        assert inputs.flags.writeable and labels.flags.writeable

    def test_no_labels_pass_the_integer_check(self):
        t = TaskDataset("t", np.zeros((0, 3)), [], (0,), [])
        assert t.labels.dtype == np.int64 and t.labels.shape == (0,)

    @pytest.mark.parametrize("read, split", [
        (lambda model, task: finetune(model, task, quick_cfg()), "train"),
        (lambda model, task: evaluate(model, task, "val"), "val"),
        (lambda model, task: task.split_arrays("test"), "test"),
    ], ids=["finetune", "evaluate", "split_arrays"])
    def test_a_missing_split_is_named(self, read, split):
        (t, _) = small_tasks()
        keep = t.row_splits != split
        nov = TaskDataset("nov", t.inputs[keep], t.labels[keep], t.class_ids,
                          t.row_splits[keep])
        model = ToyModel.init(0, t.dim, (16,), 8)
        with pytest.raises(ValueError) as info:
            read(model, nov)
        assert type(info.value) is ValueError
        assert str(info.value) == f"task 'nov' has no {split!r} split"


class TestMergeTasks:
    def test_sizes_and_ids(self):
        a, b = small_tasks()
        m = merge_tasks([a, b])
        assert len(m.labels) == len(a.labels) + len(b.labels)
        assert m.class_ids == (0, 1, 2, 3, 4)
        assert len(m.splits["train"]) == len(a.splits["train"]) + len(b.splits["train"])

    def test_global_labels_kept(self):
        a, b = small_tasks()
        m = merge_tasks([a, b])
        assert set(m.labels.tolist()) == set(a.labels.tolist()) | set(b.labels.tolist())

    def test_duplicate_example_rejected(self):
        (a, _) = small_tasks()
        with pytest.raises(ValueError):
            merge_tasks([a, a])

    @staticmethod
    def noise_free_tasks():
        # Without noise every example of a class is the same row.
        return generate_tasks(0, 4, 3, 10, 0.0, [[0, 1], [2, 3]])

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["ab", "ba"])
    def test_repeats_within_a_task_are_kept(self, order):
        tasks = self.noise_free_tasks()
        m = merge_tasks([tasks[i] for i in order])
        assert len(m.labels) == 40
        assert m.class_ids == (0, 1, 2, 3)

    def test_pretrain_on_noise_free_tasks(self):
        a, b = self.noise_free_tasks()
        assert pretrain(quick_cfg(iterations=10), [a, b]).in_dim == 3

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["ac", "ca"])
    def test_example_shared_by_two_tasks_rejected(self, order):
        a, b = self.noise_free_tasks()
        # c is b plus one example of a, in its train split.
        n = len(b.labels)
        c = TaskDataset("c", np.vstack([b.inputs, a.inputs[:1]]),
                        np.append(b.labels, a.labels[0]), (0, *b.class_ids),
                        [*b.row_splits, "train"])
        with pytest.raises(ValueError, match=re.escape("duplicate example across tasks "
                                                       "(label 0)")):
            merge_tasks([(a, c)[i] for i in order])


class TestLrSchedule:
    def test_closed_form(self):
        cfg = TrainConfig(iterations=100, warmup=10, lr=0.5)
        # warmup: linear from 0
        for step in range(10):
            assert lr_schedule(step, cfg) == pytest.approx(0.5 * step / 10)
        # cosine: peak at start, 0 exactly at the last step
        assert lr_schedule(10, cfg) == pytest.approx(0.5)
        assert lr_schedule(99, cfg) == pytest.approx(0.0, abs=1e-15)
        mid = (10 + 99) / 2
        progress = (mid - 10) / (99 - 10)
        assert lr_schedule(int(mid), cfg) == pytest.approx(
            0.5 * 0.5 * (1 + math.cos(math.pi * (int(mid) - 10) / 89)))
        assert progress == pytest.approx(0.5)

    def test_constant_lr_after_warmup(self):
        cfg = TrainConfig(iterations=100, warmup=10, lr=0.3, constant_lr=True)
        assert lr_schedule(10, cfg) == 0.3
        assert lr_schedule(99, cfg) == 0.3

    def test_monotone_decreasing_after_warmup(self):
        cfg = TrainConfig(iterations=200, warmup=20, lr=1.0)
        vals = [lr_schedule(s, cfg) for s in range(20, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_warmup_exceeds_iterations_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=10, warmup=11)

    @pytest.mark.parametrize("name", ["lr", "weight_decay", "l2_init"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("settings, message", [
        ({"lr": -1e-3}, "lr must be >= 0"),
        ({"l2_init": -1.0}, "l2_init must be >= 0"),
        ({"iterations": -3, "warmup": -4}, "iterations must be >= 0, got -3"),
        ({"warmup": -2}, "warmup must be >= 0, got -2"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"hidden": (16, 0)}, "hidden widths must be >= 1, got (16, 0)"),
        ({"embed_dim": 0}, "embed_dim must be >= 1, got 0"),
        ({"logit_scale": 0.0}, "logit_scale must be positive and finite, got 0.0"),
        ({"logit_scale": -3.0}, "logit_scale must be positive and finite, got -3.0"),
        ({"logit_scale": math.nan}, "logit_scale must be positive and finite, got nan"),
        ({"logit_scale": math.inf}, "logit_scale must be positive and finite, got inf"),
        ({"weight_decay": -5.0}, "weight_decay must be >= 0"),
    ])
    def test_out_of_range_setting_rejected(self, settings, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**settings)

    def test_hidden_is_stored_as_a_tuple(self):
        # A list would let a width skip its check after construction.
        cfg = TrainConfig(hidden=[4])
        assert cfg.hidden == (4,) and hash(cfg) == hash(TrainConfig(hidden=(4,)))
        with pytest.raises(AttributeError):
            cfg.hidden.append(0)


class TestTraining:
    def test_deterministic(self):
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16,), 8)
        a = finetune(model, t, quick_cfg())
        b = finetune(model, t, quick_cfg())
        assert a.final.equal(b.final)
        assert a.losses == b.losses

    def test_lr_zero_is_identity(self):
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16,), 8)
        record = finetune(model, t, quick_cfg(lr=0.0, weight_decay=0.0))
        assert np.array_equal(record.final.flat(), model.ckpt.flat())

    def test_large_l2_init_pins_weights(self):
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16,), 8)
        record = finetune(model, t, quick_cfg(l2_init=1e6, weight_decay=0.0))
        drift = np.abs(record.final.flat() - model.ckpt.flat()).max()
        assert drift < 1e-3

    def test_loss_decreases(self):
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16,), 8)
        record = finetune(model, t, quick_cfg(iterations=150))
        assert np.mean(record.losses[-10:]) < np.mean(record.losses[:10])

    def test_trajectory_snapshots(self):
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16,), 8)
        snapshots, _ = _train(model, t, quick_cfg(iterations=40), 10)
        assert sorted(snapshots) == [0, 10, 20, 30, 40]
        assert snapshots[0].equal(model.ckpt)
        assert snapshots[40].equal(finetune(model, t, quick_cfg(iterations=40)).final)

    def test_float32_model_trains_in_float64_and_returns_float32(self):
        # The float32 run is the float64 run from the same start, rounded.
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16,), 8)
        narrow = ToyModel(Checkpoint({n: a.astype(np.float32) for n, a in model.ckpt.items()},
                                     model.ckpt.meta))
        wide = ToyModel(Checkpoint({n: a.astype(np.float64) for n, a in narrow.ckpt.items()},
                                   model.ckpt.meta))
        cfg = quick_cfg(l2_init=0.05)
        r32, r64 = finetune(narrow, t, cfg), finetune(wide, t, cfg)
        assert r32.losses == r64.losses
        pairs = [(r32.final, r64.final)]
        for decay in (None, 0.9):
            s32, s64 = (_train(m, t, cfg, 20, decay)[0] for m in (narrow, wide))
            assert sorted(s32) == sorted(s64) == [0, 20, 40]
            pairs += [(s32[step], s64[step]) for step in s32]
            if decay is None:
                assert s32[cfg.iterations].equal(r32.final)
        for a, b in pairs:
            assert a.dtype == np.float32 and a.meta == b.meta
            assert a.flat().astype(np.float32).tobytes() == b.flat().astype(np.float32).tobytes()

    def test_ema_shadow_tracks(self):
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16,), 8)
        ema_snapshots, _ = _train(model, t, quick_cfg(), 40, ema_decay=0.9)
        assert 40 in ema_snapshots
        # shadow lags the raw weights toward the initialization
        raw = finetune(model, t, quick_cfg()).final.flat() - model.ckpt.flat()
        ema = ema_snapshots[40].flat() - model.ckpt.flat()
        assert np.linalg.norm(ema) < np.linalg.norm(raw)

    def test_ema_decay_zero_equals_raw(self):
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16,), 8)
        ema_snapshots, _ = _train(model, t, quick_cfg(), 40, ema_decay=0.0)
        assert np.allclose(ema_snapshots[40].flat(), finetune(model, t, quick_cfg()).final.flat())

    @pytest.mark.parametrize("l2_init", [0.0, 0.05], ids=["plain", "l2"])
    def test_finetune_matches_per_tensor_adamw_reference(self, l2_init):
        # finetune updates flat vectors in place; the same arithmetic done
        # tensor by tensor on new arrays, with the reference loss_and_grad,
        # must give the same bits.
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16, 8), 8)
        cfg = quick_cfg(l2_init=l2_init)
        record = finetune(model, t, cfg)
        losses, final, _, _ = reference_adamw(model, t, cfg, None, 15)
        assert record.losses == losses
        assert bits(record.final) == bits(final)

    @pytest.mark.parametrize("ema_decay", [None, 0.9], ids=["raw", "ema"])
    def test_trajectory_matches_per_tensor_adamw_reference(self, ema_decay):
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16, 8), 8)
        cfg = quick_cfg(l2_init=0.05)
        tracked, _ = _train(model, t, cfg, 15, ema_decay)
        _, _, snapshots, ema_snapshots = reference_adamw(model, t, cfg, ema_decay, 15)
        expected = snapshots if ema_decay is None else ema_snapshots
        assert sorted(tracked) == [0, *sorted(expected)]
        assert bits(tracked[0]) == bits(model.ckpt)
        for step, ckpt in expected.items():
            assert bits(tracked[step]) == bits(ckpt)

    def test_loss_and_grad_matches_reference(self):
        # Fewer temporaries, and gradients written into caller-owned views
        # through `out`, must not change a bit of the loss or the gradients.
        (t, _) = small_tasks()
        model = ToyModel.init(2, t.dim, (16, 8), 8)
        x, y = t.split_arrays("train")
        y_local = np.searchsorted(t.class_ids, y)
        init = model.ckpt
        ckpt = Checkpoint({n: a + 0.01 * (i + 1) for i, (n, a) in enumerate(init.items())})
        expected_loss, expected = reference_loss_and_grad(
            model, ckpt, x[:13], y_local[:13], t.class_ids)
        flat = np.full(init.num_params, np.nan)
        out = init.views(flat)
        for kwargs in ({}, {"out": out}):
            loss, grads = model.loss_and_grad(ckpt, x[:13], y_local[:13], t.class_ids,
                                              **kwargs)
            assert loss == expected_loss
            assert sorted(grads) == sorted(expected)
            for name, g in expected.items():
                assert grads[name].tobytes() == g.tobytes()
        assert grads is out and not np.isnan(flat).any()


class TestGradients:
    def test_matches_finite_differences(self, rng):
        (t, _) = small_tasks()
        model = ToyModel.init(1, t.dim, (5,), 4)
        x, y = t.split_arrays("train")
        from paintkit.toylab import _local_labels

        y_local = _local_labels(y[:8], t.class_ids)
        loss, grads = model.loss_and_grad(model.ckpt, x[:8], y_local, t.class_ids)
        eps = 1e-6
        for name in model.ckpt.names():
            g = grads[name]
            flat_idx = [tuple(i) for i in
                        rng.integers(0, g.shape, size=(3, g.ndim))]
            for idx in flat_idx:
                idx = tuple(int(j % s) for j, s in zip(idx, g.shape))
                tensors = {n: a.copy() for n, a in model.ckpt.items()}
                tensors[name][idx] += eps
                from paintkit import Checkpoint
                lp, _ = model.loss_and_grad(
                    Checkpoint(tensors, model.ckpt.meta), x[:8], y_local, t.class_ids)
                tensors[name][idx] -= 2 * eps
                lm, _ = model.loss_and_grad(
                    Checkpoint(tensors, model.ckpt.meta), x[:8], y_local, t.class_ids)
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd), abs(g[idx]), 1e-8)
                assert abs(fd - g[idx]) / denom < 1e-4


class TestEvaluate:
    def test_perfect_on_separable(self):
        tasks = small_tasks(noise=0.1)
        model = pretrain(quick_cfg(iterations=200), tasks)
        for t in tasks:
            assert evaluate(model, t, "test") > 0.9

    def test_restricted_class_set(self):
        # A model scored on a 2-class task only competes among those 2 ids.
        (_, t) = small_tasks()
        model = ToyModel.init(0, t.dim, (16,), 8)
        acc = evaluate(model, t, "test")
        assert 0.0 <= acc <= 1.0

    def test_encode_unit_norm(self):
        (t, _) = small_tasks()
        model = ToyModel.init(0, t.dim, (16,), 8)
        feats = model.encode(t.inputs[:10])
        assert np.allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)


def traced_peak(call):
    """The most memory tracemalloc, which sees numpy's buffers, traced at
    once while `call()` ran."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_merging_one_task_copies_it_once(self):
        (t,) = generate_tasks(0, 2, 64, 500, 0.5, [(0, 1)])
        size = t.inputs.nbytes + t.labels.nbytes + t.row_splits.nbytes
        assert traced_peak(lambda: merge_tasks([t])) < 2 * size

    def test_scoring_holds_at_most_two_layers(self):
        (t,) = generate_tasks(0, 2, 4, 2500, 0.5, [(0, 1)])
        hidden = (64, 64, 64, 64)
        model = ToyModel.init(0, t.dim, hidden, 4)
        stack = np.stack([model.ckpt.flat()] * 8)
        evaluate_stack(model, stack, t, "test")  # builds and caches the head
        activations = len(stack) * len(t.splits["test"]) * sum(hidden) * 8
        assert traced_peak(lambda: evaluate_stack(model, stack, t, "test")) < activations


class TestPretrain:
    def test_zero_iterations_returns_init(self):
        tasks = small_tasks()
        model = pretrain(quick_cfg(iterations=0, warmup=0), tasks)
        reference = ToyModel.init(0, tasks[0].dim, (16,), 8)
        assert model.ckpt.equal(reference.ckpt)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pretrain(quick_cfg(), [])


@pytest.fixture(scope="module")
def setup():
    sup, pat = small_tasks(noise=0.2)
    model = pretrain(quick_cfg(iterations=150), [sup])
    return model, pat, sup, baseline_frontiers(model, pat, sup, quick_cfg(iterations=60), 15)


class TestBaselineFrontiers:

    def test_all_methods_present(self, setup):
        _, _, _, frontiers = setup
        assert set(frontiers) == {"early_stopping", "l2_init", "learning_rate", "ema"}

    def test_frontiers_have_endpoints(self, setup):
        _, _, _, frontiers = setup
        for f in frontiers.values():
            assert f.alphas[0] == 0.0
            assert f.alphas[-1] == 1.0

    def test_step_zero_is_zero_shot(self, setup):
        model, pat, sup, frontiers = setup
        p0 = frontiers["early_stopping"].points[0]
        assert p0.supported_acc == pytest.approx(evaluate(model, sup, "val"))
        assert p0.patching_acc == pytest.approx(evaluate(model, pat, "val"))

    def test_lr_factor_zero_is_zero_shot(self, setup):
        model, pat, sup, frontiers = setup
        p0 = frontiers["learning_rate"].points[0]
        assert p0.supported_acc == pytest.approx(evaluate(model, sup, "val"))
        assert p0.patching_acc == pytest.approx(evaluate(model, pat, "val"))

    def test_lr_factor_one_is_the_early_stopping_run(self, setup):
        _, _, _, frontiers = setup
        last = frontiers["early_stopping"].points[-1]
        rung = frontiers["learning_rate"].points[-1]
        assert (rung.supported_acc, rung.patching_acc) == (last.supported_acc,
                                                           last.patching_acc)

    def test_lr_zero_run_keeps_the_start_weights(self, setup):
        # Why the x0.0 rung is not trained: every update is +-0.
        model, pat, _, _ = setup
        final = finetune(model, pat, quick_cfg(iterations=60, lr=0.0)).final
        for name, arr in model.ckpt.items():
            assert np.array_equal(final[name], arr)

    def test_runs_ten_fine_tunes(self, setup, monkeypatch):
        # Early stopping and EMA are trajectories of one run each; the
        # learning-rate ladder's x1.0 rung reuses the early-stopping run and
        # its x0.0 rung scores the start weights.
        model, pat, sup, frontiers = setup
        runs = []
        train = toylab._train

        def counted(*args):
            runs.append(args[2])
            return train(*args)

        monkeypatch.setattr(toylab, "_train", counted)
        again = baseline_frontiers(model, pat, sup, quick_cfg(iterations=60), 15)
        assert len({repr(config) for config in runs}) == len(runs) == 10
        assert all(config.lr > 0 for config in runs)
        assert {name: f.points for name, f in again.items()} == {
            name: f.points for name, f in frontiers.items()}

    def test_requires_snapshots(self, setup):
        model, pat, sup, _ = setup
        with pytest.raises(ValueError, match="snapshot_every must be > 0, got 0"):
            baseline_frontiers(model, pat, sup, quick_cfg(), 0)

    @pytest.mark.parametrize("every", [2.5, 5.0, True])
    def test_snapshot_every_is_an_integer(self, setup, monkeypatch, every):
        # 2.5 snapshotted at steps 0, 5 and 10 of 10, and True at every step.
        model, pat, sup, _ = setup
        monkeypatch.setattr(toylab, "_train", None)  # nothing may train
        with pytest.raises(ValueError) as info:
            baseline_frontiers(model, pat, sup, quick_cfg(iterations=10, warmup=0), every)
        assert type(info.value) is ValueError
        assert str(info.value) == f"snapshot_every must be an integer, got {every!r}"

    def test_requires_a_training_step(self, setup, monkeypatch):
        model, pat, sup, _ = setup
        monkeypatch.setattr(toylab, "_train", None)  # nothing may train
        with pytest.raises(ValueError, match=re.escape(
                "iterations must be >= 1 for baseline frontiers, got 0")):
            baseline_frontiers(model, pat, sup, quick_cfg(iterations=0, warmup=0), 15)


@pytest.mark.parametrize("iterations, warmup, expected", [
    # The step after warmup is the last, and the last step is 0.
    (11, 10, [0.1 * step / 10 for step in range(10)] + [0.0]),
    # One step with no warmup runs at the peak.
    (1, 0, [0.1]),
], ids=["warmup_then_last_step", "one_step"])
def test_short_schedules(iterations, warmup, expected):
    cfg = TrainConfig(iterations=iterations, warmup=warmup, lr=0.1)
    assert [lr_schedule(step, cfg) for step in range(iterations)] == expected



@pytest.mark.parametrize("make, message", [
    (lambda: TrainConfig(iterations=2.5), "iterations must be an integer, got 2.5"),
    (lambda: TrainConfig(batch_size=2.5), "batch_size must be an integer, got 2.5"),
    (lambda: TrainConfig(warmup=True), "warmup must be an integer, got True"),
    (lambda: TrainConfig(seed=1.0), "seed must be an integer, got 1.0"),
    (lambda: TrainConfig(embed_dim=8.0), "embed_dim must be an integer, got 8.0"),
    (lambda: TrainConfig(hidden=(16, 4.5)), "hidden widths must be integers, got (16, 4.5)"),
    (lambda: TrainConfig(hidden=(False,)), "hidden widths must be integers, got (False,)"),
    (lambda: generate_tasks(0, 4, 3, 10, math.nan, [(0, 1), (2, 3)]),
     "noise_scale must be finite, got nan"),
    (lambda: generate_tasks(0, 4, 3, 10, math.inf, [(0, 1), (2, 3)]),
     "noise_scale must be finite, got inf"),
], ids=["fractional_iterations", "fractional_batch_size", "bool_warmup", "float_seed",
        "float_embed_dim", "fractional_hidden_width", "bool_hidden_width", "nan_noise_scale",
        "inf_noise_scale"])
def test_counts_are_integers_and_noise_is_finite(make, message):
    # Each was accepted, then training failed mid-run in range() or
    # Generator.choice, or a NaN noise reached the task as a bad feature.
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_train_config_takes_numpy_integers():
    cfg = TrainConfig(iterations=np.int64(10), batch_size=np.uint8(4), warmup=np.int32(2),
                      seed=np.int16(3), hidden=(np.int64(4),), embed_dim=np.uint16(2))
    assert (cfg.iterations, cfg.batch_size, cfg.warmup, cfg.seed) == (10, 4, 2, 3)
    assert cfg.hidden == (4,) and cfg.embed_dim == 2


def _relabelled(task):
    return TaskDataset("u", task.inputs.copy(), np.where(task.labels == 0, 3, task.labels),
                       task.class_ids, task.row_splits.copy())


@pytest.mark.parametrize("make, message", [
    (lambda model, task: evaluate_stack(model, np.zeros((2, model.ckpt.num_params + 1)),
                                        task, "val"),
     "weight stack of shape (2, 27) does not hold rows of 26 parameters"),
    (lambda model, task: _relabelled(task), "task 'u': label outside class_ids"),
    (lambda model, task: generate_tasks(0, 4, 3, 10, -0.1, [(0, 1), (2, 3)]),
     "noise_scale must be >= 0"),
    (lambda model, task: generate_tasks(0, 4, 3, 10, 0.1, [(0,), (2, 3)]),
     "each task needs at least 2 classes"),
    (lambda model, task: TrainConfig(batch_size=0), "batch_size must be >= 1"),
], ids=["stack_of_wrong_width", "label_outside_class_ids", "negative_noise_scale",
        "one_class_group", "batch_size_0"])
def test_error_paths(make, message):
    model = ToyModel.init(0, 3, hidden=(4,), embed_dim=2)
    task = generate_tasks(0, 4, 3, 10, 0.3, [(0, 1), (2, 3)])[0]
    with pytest.raises(ValueError) as info:
        make(model, task)
    assert type(info.value) is ValueError
    assert str(info.value) == message
