"""End-to-end patching procedures: single, joint, sequential, and parallel
strategies, disjoint-class task splitting, and the broad-transfer protocol."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._atomic import atomic_open
from .metrics import Frontier, mean_accuracy, sweep_to_frontier
from .search import (
    SearchObjective,
    black_box_search,
    check_grid,
    default_grid,
    grid_search_1d,
    uniform_ray_rows,
)
from .tensors import Checkpoint, combine_rows, lerp, lerp_rows, multi_combine
from .toylab import (
    TaskDataset,
    ToyModel,
    TrainConfig,
    evaluate,
    evaluate_stack,
    finetune,
    merge_tasks,
)

STRATEGIES = ("single", "joint", "sequential", "parallel")
SEARCHES = ("grid", "uniform", "blackbox")
# Grid points scored per forward pass. A whole 51-point grid in one pass was
# no faster and its temporaries cost megabytes; blocks of 8 keep them small.
_ALPHA_BLOCK = 8


def check_selection(settings):
    """Reject an alpha grid, search, strategy or budget in `settings` (a
    mapping of PatchSpec field names to values) that patching cannot use.
    Absent names go unchecked. Needs no model, so callers can run it before
    any training."""
    if "alpha_grid" in settings:
        grid = check_grid(settings["alpha_grid"])
        # The frontier is anchored at the zero-shot and fine-tuned endpoints.
        if 0.0 not in grid or 1.0 not in grid:
            raise ValueError("alpha grid must contain 0 and 1")
    for name, allowed in (("search", SEARCHES), ("strategy", STRATEGIES)):
        if name in settings and settings[name] not in allowed:
            raise ValueError(f"unknown {name} {settings[name]!r}; "
                             f"expected one of {', '.join(allowed)}")
    if "budget" in settings and settings["budget"] < 1:
        raise ValueError(f"budget must be >= 1, got {settings['budget']}")


@dataclass
class PatchSpec:
    model: ToyModel
    patching_tasks: list
    supported_tasks: list
    strategy: str = "single"
    alpha_grid: list = field(default_factory=default_grid)
    search: str = "grid"  # parallel strategy: "uniform" or "blackbox"
    order_seeds: tuple = (0,)
    budget: int = 50
    group_weighting: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.patching_tasks:
            raise ValueError("need at least one patching task")
        if not self.supported_tasks:
            raise ValueError("need at least one supported task")
        if self.strategy == "sequential" and not self.order_seeds:
            raise ValueError("sequential strategy needs at least one order seed")
        names = set()
        for task in [*self.patching_tasks, *self.supported_tasks]:
            if task.name in names:
                raise ValueError(f"two tasks are named {task.name!r}")
            names.add(task.name)
            if task.dim != self.model.in_dim:
                raise ValueError(f"task {task.name!r} has {task.dim} features, but the "
                                 f"model takes {self.model.in_dim} inputs")
        check_selection(vars(self))


@dataclass
class PatchResult:
    patched: Checkpoint
    coefficients: tuple
    frontier: Frontier
    val_accuracies: dict
    test_accuracies: dict
    provenance: dict
    fine_tuned: list
    zero_shot: Checkpoint
    access_log: dict
    per_seed: list = field(default_factory=list)
    averaged_val_accuracies: dict = field(default_factory=dict)
    averaged_test_accuracies: dict = field(default_factory=dict)


def _objective_value(accs, supported, patching, group_weighting):
    if group_weighting:
        sup = mean_accuracy([accs[t.name] for t in supported])
        pat = mean_accuracy([accs[t.name] for t in patching])
        return (sup + pat) / 2.0
    return mean_accuracy([accs[t.name] for t in supported + patching])


def _score(spec, model, patching, rows, log):
    """Val accuracies of every supported and patching task for each row of
    the weight stack `rows`: one {task name: accuracy} dict per row."""
    tasks = spec.supported_tasks + patching
    accs = {t.name: evaluate_stack(model, rows, t, "val", log) for t in tasks}
    return [dict(zip(accs, row)) for row in zip(*accs.values())]


def _sweep(spec, model, patching, stack, log):
    """Grid-search the single coefficient of `stack`, which maps a list of
    coefficients to the stack of their flat weights, over the alpha grid.
    The grid is scored in blocks of _ALPHA_BLOCK points, task by task.
    Returns the search result, the frontier of the scored points, and their
    val accuracies keyed by coefficient tuple."""
    grid = check_grid(spec.alpha_grid)
    records = {}
    for i in range(0, len(grid), _ALPHA_BLOCK):
        block = grid[i : i + _ALPHA_BLOCK]
        scored = _score(spec, model, patching, stack(block), log)
        records.update(((alpha,), accs) for alpha, accs in zip(block, scored))
    obj = SearchObjective(lambda coeffs: _objective_value(
        records[coeffs], spec.supported_tasks, patching, spec.group_weighting))
    result = grid_search_1d(obj, grid)
    frontier = sweep_to_frontier(
        [(alpha, accs) for (alpha,), accs in sorted(records.items())],
        [t.name for t in spec.supported_tasks],
        [t.name for t in patching],
        unit="fraction",
    )
    return result, frontier, records


def _lerp_step(spec, model, patching, ft, log):
    """Sweep lerp(zs, ft, alpha) with zs = model.ckpt; return the search result,
    the frontier, and the val accuracies and weights at the selected alpha."""
    zs = model.ckpt
    search, frontier, records = _sweep(spec, model, patching,
                                       lambda alphas: lerp_rows(zs, ft, alphas), log)
    (alpha,) = search.best
    return search, frontier, records[search.best], lerp(zs, ft, alpha)


def _result(spec, patched, coefficients, frontier, val_accs, selection_log,
            provenance, fine_tuned):
    """Package a selection already scored on val; only the test report is new."""
    report_log = []
    m = spec.model.with_weights(patched)
    return PatchResult(
        patched=patched,
        coefficients=tuple(coefficients),
        frontier=frontier,
        val_accuracies=val_accs,
        test_accuracies={t.name: evaluate(m, t, "test", report_log)
                         for t in spec.supported_tasks + spec.patching_tasks},
        provenance=provenance,
        fine_tuned=fine_tuned,
        zero_shot=spec.model.ckpt,
        access_log={"selection": selection_log, "report": report_log},
    )


def _patch_one(spec, ft, ft_task_name):
    """Sweep lerp(zs, ft, alpha) and return the selected interpolation."""
    log = []
    search, frontier, val_accs, patched = _lerp_step(spec, spec.model, spec.patching_tasks,
                                                     ft, log)
    provenance = {
        "strategy": spec.strategy,
        "fine_tuned_on": ft_task_name,
        "alphas": list(search.best),
        "search_evaluations": search.evaluations,
    }
    return _result(spec, patched, search.best, frontier, val_accs, log, provenance, [ft])


def patch_single(spec: PatchSpec) -> PatchResult:
    """Fine-tune on the single patching task, sweep the alpha grid against
    validation accuracy on all tasks, and return the selected interpolation."""
    if len(spec.patching_tasks) != 1:
        raise ValueError("patch_single expects exactly one patching task")
    task = spec.patching_tasks[0]
    return _patch_one(spec, finetune(spec.model, task, spec.train).final, task.name)


def patch_joint(spec: PatchSpec) -> PatchResult:
    """Merge the patching tasks into one fine-tuning task (labels keep their
    global ids); accuracies stay reported per original task."""
    if len(spec.patching_tasks) == 1:
        return patch_single(replace(spec, strategy="single"))
    merged = merge_tasks(spec.patching_tasks, name="joint")
    return _patch_one(spec, finetune(spec.model, merged, spec.train).final, merged.name)


def patch_sequential(spec: PatchSpec) -> PatchResult:
    """Iterate the patching procedure per order seed, feeding each step's
    patched model into the next; at step i the objective only touches
    validation sets of the supported tasks and the tasks seen so far."""
    per_seed = []
    for seed in spec.order_seeds:
        order = list(np.random.default_rng(seed).permutation(len(spec.patching_tasks)))
        current = spec.model
        seen = []
        alphas = []
        fts = []
        selection_log = []
        for task_idx in order:
            seen.append(spec.patching_tasks[task_idx])
            ft = finetune(current, seen[-1], spec.train).final
            search, frontier, val_accs, patched = _lerp_step(spec, current, seen, ft,
                                                             selection_log)
            alphas.extend(search.best)
            fts.append(ft)
            current = current.with_weights(patched)
        provenance = {
            "strategy": "sequential",
            "order_seed": seed,
            "task_order": [t.name for t in seen],
            "alphas": alphas,
        }
        # The last step scored every task on val, so its record at the
        # selected alpha is the final model's val report.
        per_seed.append(_result(spec, current.ckpt, alphas, frontier, val_accs,
                                selection_log, provenance, fts))
    names = list(per_seed[0].test_accuracies)
    avg_val = {n: float(np.mean([r.val_accuracies[n] for r in per_seed])) for n in names}
    avg_test = {n: float(np.mean([r.test_accuracies[n] for r in per_seed])) for n in names}
    head = per_seed[0]
    return replace(
        head,
        per_seed=per_seed,
        averaged_val_accuracies=avg_val,
        averaged_test_accuracies=avg_test,
    )


def patch_parallel(spec: PatchSpec) -> PatchResult:
    """Fine-tune every patching task independently from the zero-shot model,
    then pick mixing coefficients by uniform or black-box search."""
    if len(spec.patching_tasks) == 1:
        return patch_single(replace(spec, strategy="single"))
    zs = spec.model.ckpt
    fts = [finetune(spec.model, task, replace(spec.train, seed=spec.train.seed + i)).final
           for i, task in enumerate(spec.patching_tasks)]
    k = len(fts)
    selection_log = []
    # The uniform ray is the uniform search and, for every search method,
    # the reported frontier.
    ray, frontier, ray_records = _sweep(spec, spec.model, spec.patching_tasks,
                                        lambda betas: uniform_ray_rows(zs, fts, betas),
                                        selection_log)
    if spec.search == "blackbox":
        # Each black-box point depends on the ones before it, so it is scored alone.
        records = {}

        def score_point(coeffs):
            (records[coeffs],) = _score(spec, spec.model, spec.patching_tasks,
                                        combine_rows(zs, fts, [coeffs]), selection_log)
            return _objective_value(records[coeffs], spec.supported_tasks,
                                    spec.patching_tasks, spec.group_weighting)

        search = black_box_search(SearchObjective(score_point), k=k, budget=spec.budget,
                                  init=0.5, seed=spec.order_seeds[0])
        coeffs = search.best
    else:
        search, records = ray, ray_records
        (beta,) = ray.best
        coeffs = (beta / k,) * k
    provenance = {
        "strategy": "parallel",
        "search": spec.search,
        "alphas": list(coeffs),
        "search_evaluations": search.evaluations,
        "best_value": search.best_value,
    }
    return _result(spec, multi_combine(zs, fts, coeffs), coeffs, frontier,
                   records[search.best], selection_log, provenance, fts)


def run_patch(spec: PatchSpec) -> PatchResult:
    strategies = {
        "single": patch_single,
        "joint": patch_joint,
        "sequential": patch_sequential,
        "parallel": patch_parallel,
    }
    check_selection(vars(spec))
    return strategies[spec.strategy](spec)


def reconstruct(result: PatchResult) -> Checkpoint:
    """Rebuild the patched checkpoint from its provenance; bit-exact."""
    if result.provenance["strategy"] == "parallel":
        return multi_combine(result.zero_shot, result.fine_tuned,
                             result.provenance["alphas"])
    current = result.zero_shot
    for ft, alpha in zip(result.fine_tuned, result.provenance["alphas"]):
        current = lerp(current, ft, alpha)
    return current


@dataclass
class SplitProtocol:
    source: str
    seed: int
    task_a: TaskDataset
    task_b: TaskDataset


def _subset_task(task, keep_classes, name):
    keep = np.isin(task.labels, list(keep_classes))
    new_index = np.full(len(task.labels), -1, dtype=np.int64)
    new_index[keep] = np.arange(int(keep.sum()))
    splits = {}
    for split, idx in task.splits.items():
        kept = [int(new_index[i]) for i in idx if keep[i]]
        splits[split] = kept
    return TaskDataset(
        name, task.inputs[keep], task.labels[keep], tuple(sorted(keep_classes)), splits
    )


def split_task(task: TaskDataset, seed: int) -> SplitProtocol:
    """Seeded partition of the class space into halves with disjoint ids
    (sizes differ by at most one class); examples follow their labels."""
    if len(task.class_ids) < 2:
        raise ValueError("cannot split a single-class task")
    ids = list(task.class_ids)
    perm = np.random.default_rng(seed).permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    half = len(ids) // 2
    set_a, set_b = shuffled[:half], shuffled[half:]
    return SplitProtocol(
        source=task.name,
        seed=seed,
        task_a=_subset_task(task, set_a, f"{task.name}_A"),
        task_b=_subset_task(task, set_b, f"{task.name}_B"),
    )


def write_broad_transfer_csv(rows, path):
    """Broad-transfer report: one row per held-out task."""
    with atomic_open(path) as f:
        f.write("task,unpatched_B,patched_B,delta\n")
        for row in rows:
            f.write(f"{row['task']},{row['unpatched_B']!r},"
                    f"{row['patched_B']!r},{row['delta']!r}\n")


def broad_transfer_eval(model, task_a, task_b, supported_tasks, spec_kwargs=None):
    """Patch on task A only (B never touches training or alpha selection),
    then measure the patched model on B's test split."""
    spec = PatchSpec(
        model=model,
        patching_tasks=[task_a],
        supported_tasks=supported_tasks,
        strategy="single",
        **(spec_kwargs or {}),
    )
    result = patch_single(spec)
    zs_on_b = evaluate(model, task_b, "test")
    patched_on_b = evaluate(model.with_weights(result.patched), task_b, "test")
    return {
        "task": task_b.name,
        "patched_on": task_a.name,
        "alpha": result.coefficients[0],
        "unpatched_B": zs_on_b,
        "patched_B": patched_on_b,
        "delta": patched_on_b - zs_on_b,
        "result": result,
    }
