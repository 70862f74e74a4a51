"""Patching-effectiveness metrics over interpolation frontiers and
representation similarity (linear CKA)."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._atomic import atomic_open


@dataclass(frozen=True)
class FrontierPoint:
    alpha: float
    supported_acc: float
    patching_acc: float


@dataclass
class Frontier:
    """Interpolation sweep: (alpha, supported accuracy, patching accuracy)
    points, sorted by alpha, always containing alpha 0 and 1.

    `unit` is "percent" (values in [0, 100]) or "fraction" (values in [0, 1]).
    """

    points: list = field(default_factory=list)
    unit: str = "percent"

    def __post_init__(self):
        if self.unit not in ("percent", "fraction"):
            raise ValueError(f"unknown unit {self.unit!r}")
        pts = sorted(
            (FrontierPoint(float(p.alpha), float(p.supported_acc), float(p.patching_acc))
             for p in self.points),
            key=lambda p: p.alpha,
        )
        hi = 100.0 if self.unit == "percent" else 1.0
        alphas = [p.alpha for p in pts]
        if len(set(alphas)) != len(alphas):
            raise ValueError("duplicate alpha in frontier")
        if not pts or alphas[0] != 0.0 or alphas[-1] != 1.0:
            raise ValueError("frontier must contain alpha=0 and alpha=1")
        for p in pts:
            if not 0.0 <= p.alpha <= 1.0:
                raise ValueError(f"alpha out of range: {p.alpha}")
            for v in (p.supported_acc, p.patching_acc):
                if not 0.0 <= v <= hi:
                    raise ValueError(f"accuracy {v} outside [0, {hi}]")
        self.points = pts

    @property
    def alphas(self):
        return [p.alpha for p in self.points]

    def to_csv(self, path):
        with atomic_open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["alpha", "supported_acc", "patching_acc"])
            for p in self.points:
                w.writerow([repr(p.alpha), repr(p.supported_acc), repr(p.patching_acc)])

    @classmethod
    def from_csv(cls, path, unit="percent"):
        """The frontier in a CSV file; a malformed file is a ValueError that
        names it, and the line of a row that is not three numbers."""
        pts = []
        with open(path, newline="") as f:
            reader = csv.reader(f)
            if next(reader, None) != ["alpha", "supported_acc", "patching_acc"]:
                raise ValueError(f"bad frontier CSV header in {path}")
            for row in reader:
                try:
                    alpha, supported, patching = map(float, row)
                except ValueError:
                    raise ValueError(f"{path}:{reader.line_num}: expected 3 numbers, "
                                     f"got {','.join(row)!r}") from None
                pts.append(FrontierPoint(alpha, supported, patching))
        try:
            return cls(pts, unit)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def to_records(self):
        return [
            {"alpha": p.alpha, "supported_acc": p.supported_acc, "patching_acc": p.patching_acc}
            for p in self.points
        ]


def mean_accuracy(accs) -> float:
    """float(np.mean(accs)) for a short list of accuracies: the same sum and
    division, without np.mean's Python-level overhead."""
    return float(np.add.reduce(accs) / len(accs))


def combined_accuracy(supported_accs, patching_accs) -> float:
    """Average of the mean supported-task and mean patching-task accuracies."""
    supported_accs = list(supported_accs)
    patching_accs = list(patching_accs)
    if not supported_accs or not patching_accs:
        raise ValueError("empty accuracy list")
    return (float(np.mean(supported_accs)) + float(np.mean(patching_accs))) / 2.0


def distance_to_endpoints(f: Frontier) -> float:
    """(x0 + y1)/2 minus the best combined accuracy over the sampled alphas.

    Contrasts one interpolated model against the pair of endpoint specialists;
    can be negative when an interior point beats the endpoint average.
    """
    x0 = f.points[0].supported_acc
    y1 = f.points[-1].patching_acc
    best = max((p.supported_acc + p.patching_acc) / 2.0 for p in f.points)
    return (x0 + y1) / 2.0 - best


def distance_to_optimal(f: Frontier) -> float:
    """(max x + max y)/2 minus the best combined accuracy; always >= 0."""
    mx = max(p.supported_acc for p in f.points)
    my = max(p.patching_acc for p in f.points)
    best = max((p.supported_acc + p.patching_acc) / 2.0 for p in f.points)
    return (mx + my) / 2.0 - best


def path_correction_cost(f: Frontier) -> float:
    """Mean distance from frontier points to the ideal set
    {x = x0 or y = y1}, counting only points strictly below both references.

    The distance to the union of the vertical line x = x0 and horizontal
    line y = y1 reduces to min(x0 - x, y1 - y) for indicated points.
    """
    x0 = f.points[0].supported_acc
    y1 = f.points[-1].patching_acc
    costs = []
    for p in f.points:
        if p.supported_acc < x0 and p.patching_acc < y1:
            costs.append(min(x0 - p.supported_acc, y1 - p.patching_acc))
        else:
            costs.append(0.0)
    return float(np.mean(costs))


def cka(a, b) -> float:
    """Linear CKA between two (samples x features) representation matrices.

    Columns are mean-centered internally; the score is
    ||B^T A||_F^2 / (||A^T A||_F * ||B^T B||_F), in [0, 1].
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("representation matrices must be 2-D")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row-count mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries")
    a = a - a.mean(axis=0, keepdims=True)
    b = b - b.mean(axis=0, keepdims=True)
    denom_a = np.linalg.norm(a.T @ a)
    denom_b = np.linalg.norm(b.T @ b)
    if denom_a == 0.0 or denom_b == 0.0:
        raise ValueError("degenerate matrix (all-zero after centering)")
    num = np.linalg.norm(b.T @ a) ** 2
    return float(num / (denom_a * denom_b))


def rep_matrix_from_csv(path):
    """Load a representation matrix from CSV, one sample per row. A ragged,
    non-numeric or empty file is a ValueError naming it."""
    try:
        with warnings.catch_warnings():
            # An empty file is reported below, by name.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if rows.size == 0:
        raise ValueError(f"{path}: no rows")
    return rows


def sweep_to_frontier(records, supported_ids, patching_ids, unit="percent") -> Frontier:
    """Assemble a Frontier from (alpha, per-task accuracy map) records.

    x is the mean over supported_ids, y the mean over patching_ids. Records
    must cover alpha 0 and 1; duplicate alphas with identical values are
    deduplicated, conflicting duplicates rejected.
    """
    supported_ids = list(supported_ids)
    patching_ids = list(patching_ids)
    seen = {}
    for alpha, accs in records:
        alpha = float(alpha)
        for tid in supported_ids + patching_ids:
            if tid not in accs:
                raise ValueError(f"record at alpha={alpha} missing task {tid!r}")
        x = mean_accuracy([accs[t] for t in supported_ids])
        y = mean_accuracy([accs[t] for t in patching_ids])
        if alpha in seen:
            if seen[alpha] != (x, y):
                raise ValueError(f"conflicting duplicate records at alpha={alpha}")
            continue
        seen[alpha] = (x, y)
    if 0.0 not in seen or 1.0 not in seen:
        raise ValueError("records must cover alpha=0 and alpha=1")
    pts = [FrontierPoint(a, x, y) for a, (x, y) in seen.items()]
    return Frontier(pts, unit)
