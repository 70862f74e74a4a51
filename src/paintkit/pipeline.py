"""End-to-end patching procedures: single, joint, sequential, and parallel
strategies, and disjoint-class task splitting."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .metrics import Frontier, combined_accuracy, mean_accuracy, sweep_to_frontier
from .search import SearchObjective, black_box_search, default_grid, grid_search_1d
from .tensors import (Checkpoint, _repeated, check_alphas, check_count, combine_rows,
                      multi_combine)
from .toylab import (
    TaskDataset,
    ToyModel,
    TrainConfig,
    _check_width,
    evaluate,
    evaluate_stack,
    finetune,
    merge_tasks,
)

STRATEGIES = ("single", "joint", "sequential", "parallel")
SEARCHES = ("uniform", "blackbox")
# Grid points scored per forward pass. A whole 51-point grid in one pass was
# no faster and its temporaries cost megabytes; blocks of 8 keep them small.
_ALPHA_BLOCK = 8


def check_selection(settings):
    """Reject an alpha grid, search, strategy, budget or order seeds in
    `settings` (a mapping of PatchSpec field names to values) that patching
    cannot use. Absent names go unchecked. Needs no model, so callers can run
    it before any training."""
    if "alpha_grid" in settings:
        grid = tuple(check_alphas(settings["alpha_grid"]))
        # The frontier is anchored at the zero-shot and fine-tuned endpoints.
        if 0.0 not in grid or 1.0 not in grid:
            raise ValueError("alpha grid must contain 0 and 1")
        if (repeated := _repeated(grid)) is not None:
            raise ValueError(f"alpha {repeated} is repeated in {grid}")
    for name, allowed in (("search", SEARCHES), ("strategy", STRATEGIES)):
        if name in settings and settings[name] not in allowed:
            raise ValueError(f"unknown {name} {settings[name]!r}; "
                             f"expected one of {', '.join(allowed)}")
    if "budget" in settings:
        check_count("budget", settings["budget"], 1)
    if "order_seeds" not in settings:
        return
    seeds = tuple(settings["order_seeds"])
    if not seeds:
        raise ValueError("need at least one order seed")
    for seed in seeds:
        check_count("order seed", seed, 0)
    if (repeated := _repeated(seeds)) is not None:
        raise ValueError(f"order seed {repeated} is repeated in {seeds}")


@dataclass(frozen=True)
class PatchSpec:
    """One patch run's settings, checked once when built; replace() makes a checked copy.
    Every task needs val and test rows, and every patching task train rows too."""
    model: ToyModel
    patching_tasks: tuple
    supported_tasks: tuple
    strategy: str = "single"
    alpha_grid: tuple = field(default_factory=default_grid)  # stored as check_alphas returns it
    search: str = "uniform"  # read by parallel with >= 2 tasks; uniform takes the ray's best
    order_seeds: tuple = (0,)  # the first also seeds the black-box search
    budget: int = 50
    group_weighting: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        object.__setattr__(self, "patching_tasks", tuple(self.patching_tasks))
        object.__setattr__(self, "supported_tasks", tuple(self.supported_tasks))
        object.__setattr__(self, "alpha_grid", tuple(check_alphas(self.alpha_grid)))
        object.__setattr__(self, "order_seeds", tuple(self.order_seeds))
        if not self.patching_tasks:
            raise ValueError("need at least one patching task")
        if not self.supported_tasks:
            raise ValueError("need at least one supported task")
        names = set()
        for task in [*self.patching_tasks, *self.supported_tasks]:
            if task.name in names:
                raise ValueError(f"two tasks are named {task.name!r}")
            names.add(task.name)
            _check_width(self.model, task)
            needed = ("train", "val", "test") if task in self.patching_tasks else ("val", "test")
            missing = next((split for split in needed if split not in task.splits), None)
            if missing is not None:
                raise ValueError(f"task {task.name!r} has no {missing!r} split")
        check_selection(vars(self))


@dataclass
class PatchResult:
    patched: Checkpoint
    steps: list  # (fine-tuned checkpoints, coefficients) of each step, in order
    frontier: Frontier
    val_accuracies: dict
    test_accuracies: dict
    provenance: dict
    zero_shot: Checkpoint
    access_log: dict
    per_seed: list = field(default_factory=list)
    averaged_val_accuracies: dict = field(default_factory=dict)
    averaged_test_accuracies: dict = field(default_factory=dict)

    @property
    def coefficients(self):
        return tuple(a for _, coeffs in self.steps for a in coeffs)

    @property
    def fine_tuned(self):
        return [ft for fts, _ in self.steps for ft in fts]


def _objective_value(spec, patching, accs):
    if spec.group_weighting:
        return combined_accuracy([accs[t.name] for t in spec.supported_tasks],
                                 [accs[t.name] for t in patching])
    return mean_accuracy([accs[t.name] for t in spec.supported_tasks + patching])


def _select(spec, model, patching, fts):
    """Select the coefficients that patch model.ckpt toward the k fine-tuned
    `fts`, on the val accuracy of the supported tasks and `patching`. The alpha
    grid is swept as beta along the ray toward the average of `fts` (with one
    model, the lerp grid) in blocks of _ALPHA_BLOCK points, task by task; each
    point is the combine_rows row of coefficients beta/k each. When k > 1 and
    spec.search is blackbox, the black-box search selects; otherwise the grid
    search over the sweep does and ships beta/k, bit-equal to its ray row.
    Returns the search that selected, the coefficients, the sweep as {beta:
    val accuracies}, the val accuracies of the selected point and the reads
    made: one (task name, split) per task and scored row, in scoring order."""
    zs, k, grid = model.ckpt, len(fts), spec.alpha_grid
    tasks, split, reads = spec.supported_tasks + patching, "val", []

    def score(rows):
        """One {task name: val accuracy} dict per row of the weight stack `rows`."""
        accs = {t.name: evaluate_stack(model, rows, t, split) for t in tasks}
        reads.extend((t.name, split) for t in tasks for _ in range(len(rows)))
        return [dict(zip(accs, row)) for row in zip(*accs.values())]

    ray = {}
    for i in range(0, len(grid), _ALPHA_BLOCK):
        block = grid[i : i + _ALPHA_BLOCK]
        ray.update(zip(block, score(combine_rows(zs, fts, [[b / k] * k for b in block]))))
    if spec.search == "blackbox" and k > 1:
        points = {}  # the val accuracies of each black-box point scored

        # Each black-box point depends on the ones before it, so it is scored alone.
        def score_point(coeffs):
            (points[coeffs],) = score(combine_rows(zs, fts, [coeffs]))
            return _objective_value(spec, patching, points[coeffs])

        search = black_box_search(SearchObjective(score_point), k=k, budget=spec.budget,
                                  init=0.5, seed=spec.order_seeds[0])
        return search, search.best, ray, points[search.best], reads
    search = grid_search_1d(
        SearchObjective(lambda coeffs: _objective_value(spec, patching, ray[coeffs[0]])), grid)
    (beta,) = search.best
    return search, (beta / k,) * k, ray, ray[beta], reads


def _patch(spec, steps, provenance):
    """Run `steps` from spec.model and package the patched model. A step is a
    pair (jobs, seen): every (task, TrainConfig) job is fine-tuned from the
    current model; the step (fine-tuned checkpoints, _select's coefficients
    on the val accuracy of the supported tasks and `seen`) is recorded and its
    multi_combine becomes the current model. The frontier is the last step's
    ray sweep; black-box points never enter it. `provenance(search, alphas)`
    gives the provenance from the last step's search and all coefficients.
    access_log holds every step's selection reads, in order, and the test
    report's reads."""
    current, applied, selection_log = spec.model, [], []
    for jobs, seen in steps:
        fts = [finetune(current, task, train).final for task, train in jobs]
        search, coeffs, ray, val, reads = _select(spec, current, seen, fts)
        selection_log += reads
        applied.append((fts, coeffs))
        current = current.with_weights(multi_combine(current.ckpt, fts, coeffs))
    # The last step scored every task on val at the coefficients it selected,
    # so that record is the patched model's val report; only the test report is new.
    report = [(t, "test") for t in spec.supported_tasks + spec.patching_tasks]
    return PatchResult(
        patched=current.ckpt,
        steps=applied,
        frontier=sweep_to_frontier(ray.items(), [t.name for t in spec.supported_tasks],
                                   [t.name for t in seen]),
        val_accuracies=val,
        test_accuracies={t.name: evaluate(current, t, split) for t, split in report},
        provenance=provenance(search, [a for _, coeffs in applied for a in coeffs]),
        zero_shot=spec.model.ckpt,
        access_log={"selection": selection_log,
                    "report": [(t.name, split) for t, split in report]},
    )


def _patch_one(spec, task, strategy):
    """Fine-tune on `task` and return the selected lerp(zs, ft, alpha), named `strategy`."""
    return _patch(spec, [([(task, spec.train)], spec.patching_tasks)],
                  lambda search, alphas: {
                      "strategy": strategy,
                      "fine_tuned_on": task.name,
                      "alphas": alphas,
                      "search_evaluations": search.evaluations,
                  })


def patch_single(spec: PatchSpec) -> PatchResult:
    """Fine-tune on the single patching task, sweep the alpha grid against
    validation accuracy on all tasks, and return the selected interpolation."""
    if len(spec.patching_tasks) != 1:
        raise ValueError("patch_single expects exactly one patching task")
    return _patch_one(spec, spec.patching_tasks[0], "single")


def patch_joint(spec: PatchSpec) -> PatchResult:
    """Merge the patching tasks into one fine-tuning task (labels keep their
    global ids); accuracies stay reported per original task."""
    if len(spec.patching_tasks) == 1:
        return patch_single(spec)
    return _patch_one(spec, merge_tasks(spec.patching_tasks, name="joint"), "joint")


def patch_sequential(spec: PatchSpec) -> PatchResult:
    """Iterate the patching procedure per order seed, feeding each step's
    patched model into the next; at step i the objective only touches
    validation sets of the supported tasks and the tasks seen so far."""
    per_seed = []
    for seed in spec.order_seeds:
        perm = np.random.default_rng(seed).permutation(len(spec.patching_tasks))
        order = tuple(spec.patching_tasks[i] for i in perm)
        steps = [([(task, spec.train)], order[: i + 1]) for i, task in enumerate(order)]
        per_seed.append(_patch(spec, steps, lambda search, alphas: {
            "strategy": "sequential",
            "order_seed": seed,
            "task_order": [t.name for t in order],
            "alphas": alphas,
        }))
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
        return patch_single(spec)
    jobs = [(task, replace(spec.train, seed=spec.train.seed + i))
            for i, task in enumerate(spec.patching_tasks)]
    return _patch(spec, [(jobs, spec.patching_tasks)], lambda search, alphas: {
        "strategy": "parallel",
        "search": spec.search,
        "alphas": alphas,
        "search_evaluations": search.evaluations,
        "best_value": search.best_value,
    })


def run_patch(spec: PatchSpec) -> PatchResult:
    strategies = {
        "single": patch_single,
        "joint": patch_joint,
        "sequential": patch_sequential,
        "parallel": patch_parallel,
    }
    return strategies[spec.strategy](spec)


def reconstruct(result: PatchResult) -> Checkpoint:
    """Rebuild the patched checkpoint by replaying result.steps from the
    zero-shot checkpoint; bit-exact."""
    current = result.zero_shot
    for fts, coeffs in result.steps:
        current = multi_combine(current, fts, coeffs)
    return current


class SplitProtocol(NamedTuple):
    """The two class-disjoint halves of a split task; unpacks as (a, b)."""
    task_a: TaskDataset
    task_b: TaskDataset


def split_task(task: TaskDataset, seed: int) -> SplitProtocol:
    """Partition of the class space into halves with disjoint ids (sizes
    differ by at most one class), seeded by an integer >= 0; examples follow
    their labels."""
    check_count("seed", seed, 0)
    if len(task.class_ids) < 2:
        raise ValueError("cannot split a single-class task")
    ids = list(task.class_ids)
    perm = np.random.default_rng(seed).permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    half = len(ids) // 2
    halves = []
    for keep_classes, suffix in ((shuffled[:half], "A"), (shuffled[half:], "B")):
        keep = np.isin(task.labels, keep_classes)
        halves.append(TaskDataset(f"{task.name}_{suffix}", task.inputs[keep], task.labels[keep],
                                  tuple(sorted(keep_classes)), task.row_splits[keep]))
    return SplitProtocol(*halves)
