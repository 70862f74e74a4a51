"""Property-based tests for the checkpoint container, weight arithmetic,
stacked scoring, the patching strategies, task-CSV parsing, the
capped-simplex projection, the coefficient bound the searches share with
combine_rows, and the one alpha rule.

Examples are derandomized and nothing is stored between runs, so every run
checks the same cases.
"""

import csv
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paintkit import (
    Checkpoint,
    FormatError,
    Frontier,
    FrontierPoint,
    PatchSpec,
    TaskDataset,
    ToyModel,
    TrainConfig,
    average,
    evaluate,
    generate_tasks,
    grid_search_1d,
    lerp,
    merge_tasks,
    load_checkpoint,
    multi_combine,
    patch_single,
    reconstruct,
    run_patch,
    save_checkpoint,
    split_task,
)
from paintkit.cli import ConfigError, main, parse_grid
from paintkit.pipeline import SEARCHES, STRATEGIES
from paintkit.search import _rounded, exhaustive_search_2d, project_capped_simplex
from paintkit.tensors import combine_rows
from paintkit.toylab import evaluate_stack

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=15)

DTYPES = (np.float32, np.float64)
# A fixed alphabet with 1- to 4-byte UTF-8 characters; deriving one from a
# codec would cost seconds on a cold cache.
texts = st.text(alphabet="aZ._ é€\U0001f600", max_size=6)
layouts = st.dictionaries(
    texts.filter(bool),
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    max_size=4,
)
metas = st.dictionaries(texts, texts, max_size=3)
alphas = st.floats(0.0, 1.0)


def values(dtype, shape):
    return hnp.arrays(dtype, shape, elements=st.floats(
        allow_nan=False, allow_infinity=False, width=np.dtype(dtype).itemsize * 8))


@st.composite
def checkpoints(draw, layout=None, dtype=None, count=1):
    """`count` checkpoints sharing one layout and dtype, drawn unless given."""
    layout = draw(layouts) if layout is None else layout
    dtype = draw(st.sampled_from(DTYPES)) if dtype is None else dtype
    return [Checkpoint({n: draw(values(dtype, s)) for n, s in layout.items()}, draw(metas))
            for _ in range(count)]


def same_bits(a, b):
    return a.names() == b.names() and all(
        x.dtype == b[n].dtype and x.shape == b[n].shape and x.tobytes() == b[n].tobytes()
        for n, x in a.items())


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "ckpt"


@PROPERTY
@given(checkpoints())
def test_save_load_roundtrip(path, cs):
    (c,) = cs
    save_checkpoint(c, path)
    data = path.read_bytes()
    loaded = load_checkpoint(path)
    assert same_bits(loaded, c) and loaded.dtype == c.dtype and loaded.meta == c.meta
    save_checkpoint(loaded, path)
    assert path.read_bytes() == data


@settings(PROPERTY, max_examples=6)  # each example loads every mutated byte
@given(checkpoints(), st.integers(1, 255))
def test_each_one_byte_mutation_loads_canonically_or_is_format_error(path, cs, mask):
    # Every byte in turn is XORed with `mask`. A file that loads must be
    # exactly the encoding of what it loaded to.
    save_checkpoint(cs[0], path)
    original = path.read_bytes()
    for i in range(len(original)):
        raw = bytearray(original)
        raw[i] ^= mask
        path.write_bytes(raw)
        try:
            loaded = load_checkpoint(path)
        except FormatError:
            continue
        save_checkpoint(loaded, path)
        assert path.read_bytes() == raw


@PROPERTY
@given(checkpoints(count=2))
def test_lerp_endpoints_copy_bit_exactly(cs):
    a, b = cs
    assert same_bits(lerp(a, b, 0.0), a)
    assert same_bits(lerp(a, b, 1.0), b)


@PROPERTY
@given(checkpoints(count=2), alphas)
def test_multi_combine_of_one_model_is_lerp(cs, alpha):
    a, b = cs
    assert multi_combine(a, [b], [alpha]).equal(lerp(a, b, alpha))


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda k: checkpoints(dtype=np.float32, count=k + 1)),
       st.lists(alphas, min_size=3, max_size=3))
def test_float32_arithmetic_accumulates_in_float64(cs, raw_alphas):
    zs, *fts = cs
    k = len(fts)
    coeffs = [a / k for a in raw_alphas[:k]]
    wide = [{n: x.astype(np.float64) for n, x in c.items()} for c in cs]

    def expect(combine):
        return Checkpoint({n: combine(*(w[n] for w in wide)).astype(np.float32)
                           for n in zs.names()})

    alpha = raw_alphas[0]
    if 0.0 < alpha < 1.0:
        ref = expect(lambda z, f, *_: (1.0 - alpha) * z + alpha * f)
        assert same_bits(lerp(zs, fts[0], alpha), ref)
    total = sum(coeffs)

    def combined(z, *fs):
        acc = (1.0 - total) * z
        for c, f in zip(coeffs, fs):
            acc = acc + c * f
        return acc

    assert same_bits(multi_combine(zs, fts, coeffs), expect(combined))
    assert same_bits(average(fts), expect(lambda z, *fs: sum(fs) / k))


# Alpha grids with endpoints, repeats and sizes on both sides of the
# pipeline's 8-point scoring block.
grids = st.lists(st.sampled_from([0.0, 1.0, 0.5]) | alphas, min_size=1, max_size=19)


def bits(ckpt):
    """A checkpoint's weights as float64 bits (exact for float32 too)."""
    return ckpt.flat().tobytes()


@PROPERTY
@given(checkpoints(count=2), grids)
def test_one_model_combine_rows_hold_lerp_bits(cs, grid):
    zs, ft = cs
    rows = combine_rows(zs, [ft], [[a] for a in grid])
    assert rows.shape == (len(grid), zs.num_params) and rows.dtype == zs.dtype
    for alpha, row in zip(grid, rows):
        assert row.astype(np.float64).tobytes() == bits(lerp(zs, ft, alpha))


@PROPERTY
@given(st.integers(0, 3).flatmap(lambda k: checkpoints(count=k + 1)),
       st.lists(alphas, min_size=1, max_size=9))
def test_combine_and_ray_rows_hold_multi_combine_bits(cs, betas):
    zs, *fts = cs
    k = len(fts)
    coeffs = [[b / max(k, 1)] * k for b in betas]
    rows = combine_rows(zs, fts, coeffs)
    assert rows.shape == (len(betas), zs.num_params) and rows.dtype == zs.dtype
    for c, row in zip(coeffs, rows):
        assert row.astype(np.float64).tobytes() == bits(multi_combine(zs, fts, c))
    if k:
        ray = combine_rows(zs, fts, [[b / k] * k for b in betas])
        assert ray.tobytes() == rows.tobytes()
        for beta, row in zip(betas, ray):
            assert row.astype(np.float64).tobytes() == bits(multi_combine(zs, fts, [beta / k] * k))


@st.composite
def signed_zero_checkpoints(draw, count):
    """`count` checkpoints sharing a drawn layout and dtype, whose elements
    include -0.0 and +0.0. A `zeros` tensor pairs each sign of the first
    one's zeros with each sign of every other's."""
    layout = draw(layouts)
    dtype = draw(st.sampled_from(DTYPES))
    elements = st.sampled_from([0.0, -0.0]) | st.floats(
        allow_nan=False, allow_infinity=False, width=np.dtype(dtype).itemsize * 8)
    zeros = ([-0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, -0.0, 0.0])
    return [Checkpoint({"zeros": np.array(zeros[min(i, 1)], dtype),
                        **{n: draw(hnp.arrays(dtype, s, elements=elements))
                           for n, s in layout.items()}}, draw(metas))
            for i in range(count)]


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda k: signed_zero_checkpoints(k + 1)),
       st.lists(alphas, max_size=4))
def test_endpoint_rows_copy_their_operand_bit_exactly(cs, betas):
    # Arithmetic gives -0.0 + 0.0 = +0.0, so only a copy keeps every zero's sign.
    zs, *fts = cs
    k = len(fts)
    zero = [0.0] * k
    one_hot = [[float(i == j) for i in range(k)] for j in range(k)]

    def holds(row, ckpt):
        return row.dtype == ckpt.dtype and row.astype(np.float64).tobytes() == bits(ckpt)

    rows = combine_rows(zs, fts, [[b / k] * k for b in betas] + [zero] + one_hot)
    assert holds(rows[len(betas)], zs)
    assert all(holds(row, ft) for row, ft in zip(rows[len(betas) + 1:], fts))
    assert same_bits(multi_combine(zs, fts, zero), zs)
    assert all(same_bits(multi_combine(zs, fts, c), ft) for c, ft in zip(one_hot, fts))
    ray = combine_rows(zs, fts, [[b / k] * k for b in [0.0, *betas, 1.0]])
    assert holds(ray[0], zs)
    if k == 1:
        assert holds(ray[-1], fts[0])
    assert same_bits(lerp(zs, fts[0], 0.0), zs)
    assert same_bits(lerp(zs, fts[0], 1.0), fts[0])


TASK = generate_tasks(4, num_classes=5, dim=3, samples_per_class=10, noise_scale=0.8,
                      partition=[(0, 1, 2, 3, 4)])[0]


@st.composite
def toy_models(draw, dtype=None):
    """Two toy models with the same architecture (zero-shot and fine-tuned)."""
    dtype = draw(st.sampled_from(DTYPES)) if dtype is None else dtype
    hidden = draw(st.sampled_from([(), (4,), (5, 3)]))
    seeds = draw(st.lists(st.integers(0, 99), min_size=2, max_size=2))
    models = [ToyModel.init(s, TASK.dim, hidden, embed_dim=4) for s in seeds]
    return [ToyModel(Checkpoint({n: a.astype(dtype) for n, a in m.ckpt.items()}, m.ckpt.meta))
            for m in models]


@settings(PROPERTY, max_examples=25)
@given(toy_models(), grids, st.sets(st.integers(0, len(TASK.labels) - 1), min_size=1))
def test_stacked_scoring_equals_evaluate_per_row(models, grid, rows):
    zs, ft = (m.ckpt for m in models)
    task = TaskDataset("t", TASK.inputs, TASK.labels, TASK.class_ids,
                       ["val" if i in rows else "" for i in range(len(TASK.labels))])
    stack = combine_rows(zs, [ft], [[a] for a in grid])
    accs = evaluate_stack(models[0], stack, task, "val")
    x, _ = task.split_arrays("val")
    logits = models[0].logits(x, task.class_ids, zs.views(stack))
    for alpha, acc, row_logits in zip(grid, accs, logits):
        model = models[0].with_weights(lerp(zs, ft, alpha))
        assert acc == evaluate(model, task, "val")
        assert row_logits.tobytes() == model.logits(x, task.class_ids).tobytes()


TWO_MODELS = [ToyModel.init(s, TASK.dim, (4,), embed_dim=4) for s in (5, 6)]


@settings(PROPERTY, max_examples=10)
@given(toy_models(dtype=np.float64),
       st.lists(st.sampled_from([i / 20 for i in range(1, 20)]), max_size=19,
                unique=True).flatmap(lambda g: st.permutations([0.0, 1.0] + g)))
@example(TWO_MODELS, [i / 15 for i in range(16)])  # exactly two scoring blocks
def test_sweep_scores_each_alpha_like_evaluate(models, grid):
    sup, pat = generate_tasks(2, num_classes=6, dim=TASK.dim, samples_per_class=10,
                              noise_scale=0.8, partition=[(0, 1, 2, 3), (4, 5)])
    model = models[0]
    spec = PatchSpec(model=model, patching_tasks=[pat], supported_tasks=[sup],
                     alpha_grid=grid, train=TrainConfig(iterations=3, warmup=0, batch_size=4,
                                                        hidden=(), embed_dim=4))
    result = patch_single(spec)
    ft = result.fine_tuned[0]
    val = {a: [evaluate(model.with_weights(lerp(model.ckpt, ft, a)), t, "val")
               for t in (sup, pat)] for a in grid}
    assert [(p.alpha, p.supported_acc, p.patching_acc) for p in result.frontier.points] == [
        (a, *val[a]) for a in sorted(val)]
    best = max(sum(v) / 2 for v in val.values())
    assert result.coefficients == (min(a for a, v in val.items() if sum(v) / 2 == best),)
    assert result.val_accuracies == dict(zip((sup.name, pat.name), val[result.coefficients[0]]))
    assert result.provenance["search_evaluations"] == len(grid)
    assert len(result.access_log["selection"]) == 2 * len(grid)


def test_a_repeated_alpha_is_rejected_before_any_work(tmp_path, capsys):
    # A repeat was scored twice but kept one frontier point.
    grid = [i / 16 for i in range(17)] + [0.5]
    message = f"alpha 0.5 is repeated in {tuple(grid)}"
    sup, pat = generate_tasks(2, num_classes=6, dim=TASK.dim, samples_per_class=10,
                              noise_scale=0.8, partition=[(0, 1, 2, 3), (4, 5)])
    with pytest.raises(ValueError) as info:
        PatchSpec(model=TWO_MODELS[0], patching_tasks=[pat], supported_tasks=[sup],
                  alpha_grid=grid)
    assert str(info.value) == message
    # The CLI reports it as a usage error before it loads or writes anything.
    out = tmp_path / "out"
    assert main(["patch", "--zs_checkpoint", str(tmp_path / "missing.ckpt"),
                 "--patching_tasks", "a.csv", "--supported_tasks", "b.csv",
                 "--out_dir", str(out), "--alpha_grid", ",".join(map(repr, grid))]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


PATCH_TASKS = generate_tasks(5, num_classes=7, dim=3, samples_per_class=10, noise_scale=0.8,
                             partition=[(0, 1, 2), (3, 4), (5, 6)])
PATCH_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


# The search matters to the parallel strategy only.
@pytest.mark.parametrize("strategy, search", [
    *((strategy, "uniform") for strategy in STRATEGIES if strategy != "parallel"),
    *(("parallel", search) for search in SEARCHES)])
@settings(PROPERTY, max_examples=8)
@given(k=st.integers(1, 2), order_seeds=st.lists(st.integers(0, 9), min_size=1, max_size=3,
                                                 unique=True), group_weighting=st.booleans())
def test_every_strategy_selects_on_val_and_reconstructs(strategy, search, k, order_seeds,
                                                        group_weighting):
    # A pretrained model is not needed for these invariants: a fresh one and
    # five training steps per fine-tune keep each example fast, and the high
    # learning rate moves the selected coefficients off zero.
    k = 1 if strategy == "single" else k
    model = ToyModel.init(0, 3, (4,), embed_dim=4)
    spec = PatchSpec(model=model, patching_tasks=PATCH_TASKS[1 : 1 + k],
                     supported_tasks=PATCH_TASKS[:1], strategy=strategy,
                     alpha_grid=list(PATCH_GRID), search=search, order_seeds=tuple(order_seeds),
                     budget=4, group_weighting=group_weighting,
                     train=TrainConfig(iterations=5, warmup=0, batch_size=4, lr=0.1,
                                       hidden=(4,), embed_dim=4))
    result = run_patch(spec)
    assert len(result.per_seed) == (len(order_seeds) if strategy == "sequential" else 0)
    # Sequential patches one task per step; parallel mixes its k models in one.
    shape = {"sequential": [1] * k, "parallel": [k]}.get(strategy, [1])
    for r in [result, *result.per_seed]:
        assert same_bits(reconstruct(r), r.patched)
        assert [len(fts) for fts, _ in r.steps] == shape
        assert [len(coeffs) for _, coeffs in r.steps] == shape
        assert r.coefficients == tuple(r.provenance["alphas"])
        assert r.fine_tuned == [ft for fts, _ in r.steps for ft in fts]
        assert {split for _, split in r.access_log["selection"]} == {"val"}
        assert {split for _, split in r.access_log["report"]} == {"test"}
        # One read per task and scored row: each step sweeps the grid over the
        # supported task and the tasks seen so far, and each black-box point
        # is one more row; the report reads every task once.
        seen = range(1, k + 1) if strategy == "sequential" else [k]
        reads = sum(len(PATCH_GRID) * (1 + n) for n in seen)
        if r.provenance["strategy"] == "parallel" and search == "blackbox":
            reads += r.provenance["search_evaluations"] * (1 + k)
        assert len(r.access_log["selection"]) == reads
        assert len(r.access_log["report"]) == 1 + k
        # The frontier is the ray sweep alone, and the val report is the
        # patched model's own val accuracy on every task.
        assert r.frontier.alphas == sorted(PATCH_GRID)
        assert r.val_accuracies == {t.name: evaluate(model.with_weights(r.patched), t, "val")
                                    for t in spec.supported_tasks + spec.patching_tasks}
        coeffs = r.coefficients
        if r.provenance["strategy"] != "parallel":
            assert len(coeffs) == len(r.fine_tuned) and set(coeffs) <= set(PATCH_GRID)
        elif search == "blackbox":
            assert len(coeffs) == k and all(0.0 <= c <= 1.0 for c in coeffs)
            assert sum(coeffs) <= 1.0 + 1e-12
        else:
            assert coeffs in {(beta / k,) * k for beta in PATCH_GRID}


CSV_TASK = generate_tasks(3, num_classes=4, dim=2, samples_per_class=10, noise_scale=0.5,
                          partition=[(1, 3)])[0]
# Replacement cells: numbers at and beyond every column's range, split and
# header names, and short strings of the characters CSV and numbers use.
cells = st.one_of(
    st.sampled_from(["", "0", "1", "-1", "16", "18", str(2**63), str(-2**63 - 1), "nan",
                     "-inf", "1e400", "-0.0", "train", "val", "test", "id", "split",
                     "label", "f0"]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(alphabet="01-.e,x \"\n", max_size=4),
)


def same_task(a, b):
    return (a.inputs.tobytes() == b.inputs.tobytes() and a.inputs.shape == b.inputs.shape
            and np.array_equal(a.labels, b.labels) and a.class_ids == b.class_ids
            and a.row_splits.tolist() == b.row_splits.tolist())


@settings(PROPERTY, max_examples=30)  # each example loads every mutated cell
@given(cells)
def test_each_task_csv_cell_mutation_roundtrips_or_names_the_file(path, cell):
    # Every cell in turn, header cells included, is replaced by `cell`. A
    # file that loads must hold a task that to_csv writes and reads back.
    source, copy = path.with_suffix(".csv"), path.with_suffix(".copy.csv")
    CSV_TASK.to_csv(source)
    with open(source, newline="") as f:
        rows = list(csv.reader(f))
    for r, c in [(r, c) for r, row in enumerate(rows) for c in range(len(row))]:
        mutated = [list(row) for row in rows]
        mutated[r][c] = cell
        with open(source, "w", newline="") as f:
            csv.writer(f).writerows(mutated)
        try:
            task = TaskDataset.from_csv(source)
        except ValueError as exc:
            assert str(exc).startswith(f"{source}:"), (r, c, str(exc))
            continue
        task.to_csv(copy)
        assert same_task(TaskDataset.from_csv(copy), task), (r, c)


PAIR = generate_tasks(5, num_classes=4, dim=2, samples_per_class=10, noise_scale=0.5,
                      partition=[(0, 1), (2, 3)])
# Split cells: the usual names, none, and names CSV must quote or that end
# in a NUL.
split_cells = st.one_of(st.sampled_from(["", "train", "val", "test"]),
                        st.text(alphabet="ab ,\"\r\n\0é", max_size=4))
split_columns = st.lists(split_cells, min_size=20, max_size=20)


def rows_by_split(column):
    return {s: [i for i, cell in enumerate(column) if cell == s] for s in set(column) if s}


@settings(PROPERTY, max_examples=30)
@given(split_columns, split_columns, st.integers(0, 9))
@example(col_a=["train\0", "a,b", "", "val"] * 5, col_b=["val", "train", "", "x\n"] * 5, seed=0)
def test_split_column_survives_csv_merge_and_split_task(path, col_a, col_b, seed):
    a, b = (TaskDataset(t.name, t.inputs, t.labels, t.class_ids, col)
            for t, col in zip(PAIR, (col_a, col_b)))
    merged = merge_tasks([a, b])
    assert merged.row_splits.tolist() == col_a + col_b
    proto = split_task(merged, seed)
    halves = [(half, [cell for cell, label in zip(col_a + col_b, merged.labels)
                      if label in half.class_ids]) for half in (proto.task_a, proto.task_b)]
    for task, column in [(a, col_a), (b, col_b), (merged, col_a + col_b), *halves]:
        assert task.row_splits.tolist() == column
        assert {s: idx.tolist() for s, idx in task.splits.items()} == rows_by_split(column)
        assert all(idx.dtype == np.int64 for idx in task.splits.values())
        task.to_csv(path)
        assert TaskDataset.from_csv(path).row_splits.tolist() == column


vectors = st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=8).map(np.array)
# Dyadic gaps between sorted cut points in [0, 2^20]: every coordinate in
# [0, 1] and an exact sum <= 1, including the faces and vertices.
SCALE = 2.0**20
feasible = st.lists(st.integers(0, 2**20), min_size=2, max_size=9).map(
    lambda cuts: np.diff(sorted(cuts)) / SCALE)


@settings(PROPERTY, max_examples=40)
@given(vectors)
def test_capped_simplex_projection_is_feasible_and_idempotent(x):
    p = project_capped_simplex(x)
    assert p.shape == x.shape
    assert np.all((0.0 <= p) & (p <= 1.0)) and p.sum() <= 1.0 + 1e-12
    # A projected sum may round to just above 1, so a second projection can
    # move the point by a few ulps.
    np.testing.assert_allclose(project_capped_simplex(p), p, rtol=0.0, atol=1e-12)


@settings(PROPERTY, max_examples=40)
@given(feasible)
def test_capped_simplex_projection_keeps_feasible_points(x):
    assert np.array_equal(project_capped_simplex(x), x)


def _one_weight_lab(k):
    """A one-weight zero-shot checkpoint and k fine-tuned ones."""
    return (Checkpoint({"w": np.zeros(1)}),
            [Checkpoint({"w": np.full(1, i + 1.0)}) for i in range(k)])


def _accepted(alphas):
    zs, fts = _one_weight_lab(len(alphas))
    try:
        combine_rows(zs, fts, [alphas])
    except ValueError:
        return False
    return True


@settings(PROPERTY, max_examples=60)
@given(vectors)
# Six coordinates of 1/6 each round up to a sum of 1.000000000002, over the
# bound: the black-box search floors them.
@example(np.ones(6))
def test_black_box_keys_are_coefficients_combine_rows_takes(x):
    assert _accepted(_rounded(project_capped_simplex(x)))


# Grid values and their complements to 1 shifted by -1e-12 to 2e-12, so that
# some pairs sum to just under, at and just over the bound.
near_complements = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-12, 2e-12, -1e-12])),
    min_size=1, max_size=3,
).map(lambda pairs: [a for a, _ in pairs] + [min(1.0, max(0.0, 1.0 - a + d)) for a, d in pairs])


@settings(PROPERTY, max_examples=40)
@given(near_complements)
@example([0.5, 0.5 + 1e-12, 0.5 + 2e-12])
def test_2d_search_scores_exactly_the_pairs_combine_rows_takes(grid):
    scored = [point for point, _ in exhaustive_search_2d(lambda c: 0.0, grid).trace]
    assert scored == [(a1, a2) for a1 in sorted(grid) for a2 in sorted(grid)
                      if _accepted((a1, a2))]


def test_a_pair_just_over_the_bound_is_skipped_and_rejected():
    over = (0.5, 0.5 + 2e-12)
    scored = [point for point, _ in exhaustive_search_2d(lambda c: 0.0, over).trace]
    assert scored == [(0.5, 0.5)]
    zs, fts = _one_weight_lab(2)
    with pytest.raises(ValueError, match=r"coefficients sum to .* > 1"):
        combine_rows(zs, fts, [over])


def _alpha_outcome(store):
    """("stored", the alpha `store()` keeps, exactly) or ("rejected", its message)."""
    try:
        return "stored", repr(float(store()))
    except (ValueError, ConfigError) as exc:
        return "rejected", str(exc)


@settings(PROPERTY, max_examples=100)
@given(st.floats())
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(1.0000000000000002)
@example(math.nan)
@example(-math.inf)
def test_one_alpha_rule_accepts_and_stores_alike(a):
    zs, (ft,) = _one_weight_lab(1)  # weights 0 and 1: the lerp weight is alpha
    anchors = [FrontierPoint(x, 1, 1) for x in (0.0, 1.0) if x != a]
    outcomes = [_alpha_outcome(store) for store in (
        lambda: lerp(zs, ft, a)["w"][0],
        lambda: grid_search_1d(lambda c: 0.0, [a]).best[0],
        lambda: next(p.alpha for p in Frontier([FrontierPoint(a, 1, 1), *anchors],
                                                "fraction").points if p.alpha == a),
        lambda: parse_grid(repr(a))[0],
    )]
    if 0.0 <= a <= 1.0:
        assert outcomes == [("stored", repr(a + 0.0))] * 4
    else:
        assert [kind for kind, _ in outcomes] == ["rejected"] * 4
        assert all(message.endswith(f"alpha out of range: {a}") for _, message in outcomes)
