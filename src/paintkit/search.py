"""Mixing-coefficient selection: 1-D grid search, uniform search along the
average-of-fine-tuned ray, derivative-free black-box search on the capped
simplex, and exhaustive 2-D search for task pairs."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .tensors import combine_rows, multi_combine


class SearchObjective:
    """Wraps an evaluate function (CoeffVector -> scalar, higher is better)
    and counts evaluations."""

    def __init__(self, fn):
        self._fn = fn
        self.evaluations = 0

    def __call__(self, coeffs):
        self.evaluations += 1
        return float(self._fn(tuple(float(c) for c in coeffs)))


@dataclass
class SearchResult:
    best: tuple
    best_value: float
    trace: list = field(default_factory=list)

    @property
    def evaluations(self):
        return len(self.trace)


def _result(trace):
    """The SearchResult of `trace`, a list of (coefficients, value): its
    argmax, ties broken by the lexicographically smallest coefficients."""
    best = None
    for coeffs, value in trace:
        if best is None or value > best[1] or (value == best[1] and coeffs < best[0]):
            best = (coeffs, value)
    return SearchResult(*best, trace)


def check_grid(grid):
    """The grid as floats; rejects an empty grid or a value outside [0, 1]."""
    grid = [float(a) for a in grid]
    if not grid:
        raise ValueError("empty grid")
    for a in grid:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"grid value out of range: {a}")
    return grid


def grid_search_1d(obj, grid) -> SearchResult:
    """Evaluate every grid alpha exactly once; argmax, smallest alpha on ties."""
    grid = check_grid(grid)
    return _result([((a,), obj((a,))) for a in grid])


def default_grid():
    """The 21-point alpha grid 0, 0.05, ..., 1."""
    return [round(i * 0.05, 10) for i in range(21)]


def uniform_ray_rows(zs, fts, betas):
    """The stack whose row i holds the weights at betas[i] on the ray from zs
    toward the average of the fine-tuned checkpoints, combined from per-model
    coefficients beta/k so that it is bit-equal to the model those
    coefficients select (see tensors.combine_rows)."""
    k = len(fts)
    return combine_rows(zs, fts, [[beta / k] * k for beta in betas])


def uniform_search_parallel(zs, fts, eval_model, grid) -> SearchResult:
    """Search a single scalar beta interpolating zs toward the average of the
    fine-tuned checkpoints; the result carries per-model coefficients beta/k.

    `eval_model` maps a combined Checkpoint to a scalar score.
    """
    fts = list(fts)
    if not fts:
        raise ValueError("no fine-tuned checkpoints")
    k = len(fts)

    def objective(coeffs):
        (beta,) = coeffs
        return eval_model(multi_combine(zs, fts, [beta / k] * k))

    result = grid_search_1d(SearchObjective(objective), grid)
    (beta_star,) = result.best
    return SearchResult(tuple([beta_star / k] * k), result.best_value, result.trace)


def project_capped_simplex(x):
    """Project onto {a in [0,1]^k : sum(a) <= 1} (Euclidean projection)."""
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    if x.sum() <= 1.0:
        return x
    # Projection onto the probability simplex (Duchi et al. 2008); the [0,1]
    # box is implied by the simplex constraint.
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(x) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


def _rounded(point):
    # To 12 decimals; down where rounding up lifts the sum over combine_rows' bound.
    key = tuple(round(float(c), 12) for c in point)
    if sum(key) > 1.0 + 1e-12:
        key = tuple(math.floor(float(c) * 1e12) / 1e12 for c in point)
    return key


def black_box_search(obj, k, budget=50, init=0.5, seed=0) -> SearchResult:
    """Derivative-free coordinate pattern search with step halving, box- and
    simplex-constrained, starting from the all-`init` point.

    Performs at most `budget` objective evaluations and returns the best
    point seen. Deterministic for a fixed seed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    current = project_capped_simplex(np.full(k, float(init)))
    start = _rounded(current)
    scored = {start: obj(start)}  # every point evaluated, rounded, in order: its value
    current_value = scored[start]
    step = 0.25
    while len(scored) < budget and step >= 1e-6:
        improved = False
        for i, sign in itertools.product(rng.permutation(k), (1.0, -1.0)):
            if len(scored) >= budget:
                break
            candidate = current.copy()
            candidate[i] += sign * step
            candidate = project_capped_simplex(candidate)
            key = _rounded(candidate)
            # The current value is the best so far: a point scored before never beats it.
            if key not in scored:
                scored[key] = value = obj(key)
                if value > current_value:
                    current, current_value = candidate, value
                    improved = True
        if not improved:
            step /= 2.0
    return _result(list(scored.items()))


def exhaustive_search_2d(obj, grid) -> SearchResult:
    """Evaluate all feasible (a1, a2) grid pairs with a1 + a2 <= 1."""
    grid = check_grid(grid)
    trace = []
    for a1 in sorted(grid):
        for a2 in sorted(grid):
            if a1 + a2 <= 1.0 + 1e-12:
                point = (a1, a2)
                trace.append((point, obj(point)))
    if not trace:
        raise ValueError(f"grid {grid} has no pair with a1 + a2 <= 1")
    return _result(trace)
