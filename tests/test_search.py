import math

import numpy as np
import pytest

from paintkit import (
    Checkpoint,
    SearchObjective,
    black_box_search,
    default_grid,
    exhaustive_search_2d,
    grid_search_1d,
    lerp,
    multi_combine,
    uniform_search_parallel,
)
from paintkit.search import project_capped_simplex
from paintkit.tensors import combine_rows


def feasible(point):
    return all(0.0 <= c <= 1.0 for c in point) and sum(point) <= 1.0 + 1e-12


class TestGridSearch1d:
    def test_constant_objective_tie_breaks_smallest(self):
        result = grid_search_1d(SearchObjective(lambda c: 1.0), default_grid())
        assert result.best == (0.0,)

    def test_unique_maximizer(self):
        obj = SearchObjective(lambda c: -((c[0] - 0.35) ** 2))
        result = grid_search_1d(obj, default_grid())
        assert result.best == (0.35,)

    def test_evaluation_count_equals_grid(self):
        obj = SearchObjective(lambda c: c[0])
        grid = default_grid()
        result = grid_search_1d(obj, grid)
        assert obj.evaluations == len(grid)
        assert result.evaluations == len(grid)

    def test_mnist_column_argmax(self):
        # ViT-L/14 MNIST (supported, patching) per alpha; 0.30-0.50 all tie
        # at combined 87.50 and the smallest wins.
        table = {
            0.00: (75.5, 76.4), 0.05: (75.6, 88.3), 0.10: (75.6, 94.5),
            0.15: (75.6, 97.4), 0.20: (75.5, 98.6), 0.25: (75.5, 99.2),
            0.30: (75.6, 99.4), 0.35: (75.5, 99.5), 0.40: (75.4, 99.6),
            0.45: (75.3, 99.7), 0.50: (75.2, 99.8), 0.55: (75.1, 99.8),
            0.60: (74.9, 99.8), 0.65: (74.8, 99.8), 0.70: (74.6, 99.8),
            0.75: (74.4, 99.8), 0.80: (74.2, 99.8), 0.85: (73.9, 99.8),
            0.90: (73.7, 99.8), 0.95: (73.3, 99.8), 1.00: (72.9, 99.8),
        }
        obj = SearchObjective(lambda c: sum(table[c[0]]) / 2.0)
        result = grid_search_1d(obj, sorted(table))
        assert result.best == (0.30,)
        assert result.best_value == pytest.approx(87.50, abs=1e-9)

    def test_invariants(self):
        result = grid_search_1d(SearchObjective(lambda c: c[0] * (1 - c[0])),
                                default_grid())
        assert result.best_value == max(v for _, v in result.trace)
        assert any(c == result.best for c, _ in result.trace)

    def test_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            grid_search_1d(SearchObjective(lambda c: 0.0), [])
        with pytest.raises(ValueError):
            grid_search_1d(SearchObjective(lambda c: 0.0), [0.5, 1.2])


class TestUniformSearchParallel:
    def make(self, rng, k=2):
        zs = Checkpoint({"w": rng.standard_normal(6)})
        fts = [Checkpoint({"w": rng.standard_normal(6)}) for _ in range(k)]
        return zs, fts

    def test_beta_zero_is_zero_shot(self, rng):
        zs, fts = self.make(rng)
        seen = []
        uniform_search_parallel(zs, fts, lambda c: seen.append(c.flat()) or 0.0, [0.0, 1.0])
        assert np.array_equal(seen[0], zs.flat())

    def test_k1_reduces_to_grid_over_lerp(self, rng):
        zs, fts = self.make(rng, k=1)
        target = fts[0].flat()

        def score(ckpt):
            return -float(np.sum((ckpt.flat() - target) ** 2))

        result = uniform_search_parallel(zs, fts, score, default_grid())
        reference = grid_search_1d(
            SearchObjective(lambda c: score(lerp(zs, fts[0], c[0]))), default_grid())
        assert result.best == reference.best

    def test_scores_the_model_it_selects(self, rng):
        # Each scored checkpoint is bit-equal to the combination the
        # returned per-model coefficients build.
        for k in (2, 3):
            zs, fts = self.make(rng, k=k)
            grid = [i / 10 for i in range(11)]
            seen = []
            result = uniform_search_parallel(
                zs, fts, lambda c: seen.append(c) or float(c.flat()[0]), grid)
            assert len(seen) == len(grid)
            for beta, ckpt in zip(grid, seen):
                expected = multi_combine(zs, fts, [beta / k] * k)
                assert ckpt["w"].tobytes() == expected["w"].tobytes()
            chosen = multi_combine(zs, fts, result.best)
            assert any(chosen["w"].tobytes() == c["w"].tobytes() for c in seen)

    def test_result_sums_to_beta(self, rng):
        zs, fts = self.make(rng, k=3)
        result = uniform_search_parallel(
            zs, fts, lambda c: float(c.flat()[0]), default_grid())
        assert len(result.best) == 3
        assert len(set(result.best)) == 1
        assert 0.0 <= sum(result.best) <= 1.0 + 1e-12


class TestProjection:
    def test_inside_unchanged(self):
        assert np.array_equal(project_capped_simplex([0.2, 0.3]), [0.2, 0.3])

    def test_oversum_projected(self, rng):
        for _ in range(50):
            x = rng.uniform(-0.5, 1.5, size=int(rng.integers(1, 6)))
            p = project_capped_simplex(x)
            assert feasible(tuple(p))


def _quadratic(c):
    return -sum((a - t) ** 2 for a, t in zip(c, (0.2, 0.35, 0.1)))


def _plateau(c):
    # Flat in steps of 0.1, so neighbours tie, the step halves and the search
    # proposes points it scored before.
    return -math.floor(10 * abs(c[0] - 0.3)) - math.floor(10 * abs(c[1] - 0.6))


# The points black_box_search scored, in order, recorded from the search as
# it was before its scored points were kept in one table.
PINNED_TRACES = {
    "concave_k3": ((_quadratic, 3, 40, 0), [
        (0.333333333333, 0.333333333333, 0.333333333333),
        (0.25, 0.25, 0.5),
        (0.333333333333, 0.333333333333, 0.083333333333),
        (0.583333333333, 0.333333333333, 0.083333333333),
        (0.083333333333, 0.333333333333, 0.083333333333),
        (0.083333333333, 0.583333333333, 0.083333333333),
        (0.083333333333, 0.083333333333, 0.083333333333),
        (0.083333333333, 0.333333333333, 0.333333333333),
        (0.083333333333, 0.333333333333, 0.0),
        (0.0, 0.333333333333, 0.083333333333),
        (0.083333333333, 0.333333333333, 0.208333333333),
        (0.208333333333, 0.333333333333, 0.083333333333),
        (0.208333333333, 0.458333333333, 0.083333333333),
        (0.208333333333, 0.208333333333, 0.083333333333),
        (0.208333333333, 0.333333333333, 0.208333333333),
        (0.208333333333, 0.333333333333, 0.0),
        (0.270833333333, 0.333333333333, 0.083333333333),
        (0.145833333333, 0.333333333333, 0.083333333333),
        (0.208333333333, 0.333333333333, 0.145833333333),
        (0.208333333333, 0.333333333333, 0.020833333333),
        (0.208333333333, 0.395833333333, 0.083333333333),
        (0.208333333333, 0.270833333333, 0.083333333333),
        (0.239583333333, 0.333333333333, 0.083333333333),
        (0.177083333333, 0.333333333333, 0.083333333333),
        (0.208333333333, 0.333333333333, 0.114583333333),
        (0.208333333333, 0.364583333333, 0.114583333333),
        (0.239583333333, 0.364583333333, 0.114583333333),
        (0.177083333333, 0.364583333333, 0.114583333333),
        (0.208333333333, 0.364583333333, 0.145833333333),
        (0.208333333333, 0.364583333333, 0.083333333333),
        (0.208333333333, 0.395833333333, 0.114583333333),
        (0.208333333333, 0.364583333333, 0.130208333333),
        (0.208333333333, 0.364583333333, 0.098958333333),
        (0.208333333333, 0.380208333333, 0.098958333333),
        (0.208333333333, 0.348958333333, 0.098958333333),
        (0.223958333333, 0.348958333333, 0.098958333333),
        (0.192708333333, 0.348958333333, 0.098958333333),
        (0.192708333333, 0.364583333333, 0.098958333333),
        (0.192708333333, 0.333333333333, 0.098958333333),
        (0.192708333333, 0.348958333333, 0.114583333333),
    ]),
    "plateau_k2": ((_plateau, 2, 25, 5), [
        (0.5, 0.5),
        (0.375, 0.625),
        (0.375, 0.375),
        (0.125, 0.625),
        (0.25, 0.75),
        (0.4375, 0.5625),
        (0.25, 0.625),
        (0.3125, 0.6875),
        (0.375, 0.5),
        (0.40625, 0.59375),
        (0.3125, 0.625),
        (0.34375, 0.65625),
        (0.375, 0.5625),
        (0.359375, 0.640625),
        (0.375, 0.59375),
        (0.390625, 0.609375),
        (0.34375, 0.625),
        (0.3828125, 0.6171875),
        (0.359375, 0.625),
        (0.3671875, 0.6328125),
        (0.375, 0.609375),
        (0.37109375, 0.62890625),
        (0.375, 0.6171875),
        (0.37890625, 0.62109375),
        (0.3671875, 0.625),
    ]),
    "budget_ends_mid_round": ((_quadratic, 3, 4, 0), [
        (0.333333333333, 0.333333333333, 0.333333333333),
        (0.25, 0.25, 0.5),
        (0.333333333333, 0.333333333333, 0.083333333333),
        (0.583333333333, 0.333333333333, 0.083333333333),
    ]),
}


class TestBlackBoxSearch:
    def test_budget_one_returns_projected_init(self):
        obj = SearchObjective(lambda c: -sum(c))
        result = black_box_search(obj, k=3, budget=1, init=0.5)
        assert result.evaluations == 1
        assert feasible(result.best)
        # 3 * 0.5 > 1 projects onto the simplex: equal thirds
        assert result.best == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    @pytest.mark.parametrize("k", range(2, 21))
    def test_first_point_passes_combine_rows(self, k):
        # 1/k rounded to 12 decimals can sum over combine_rows' bound (k = 6).
        visited = []
        black_box_search(SearchObjective(lambda c: visited.append(c) or 0.0), k=k, budget=1)
        zs = Checkpoint({"w": np.zeros(2)})
        combine_rows(zs, [zs] * k, visited)
        assert all(feasible(c) for c in visited)

    def test_every_point_passes_combine_rows(self, rng):
        zs = Checkpoint({"w": np.zeros(2)})
        for seed in range(40):
            k = int(rng.integers(2, 11))
            target = rng.dirichlet(np.ones(k)) * rng.uniform(0.5, 1.2)
            visited = []

            def f(c):
                visited.append(c)
                return -float(np.sum((np.asarray(c) - target) ** 2))

            result = black_box_search(SearchObjective(f), k=k, budget=60, seed=seed)
            combine_rows(zs, [zs] * k, [*visited, result.best])
            assert all(feasible(c) for c in visited)

    def test_concave_2d_near_grid_optimum(self):
        def f(c):
            return -((c[0] - 0.3) ** 2) - (c[1] - 0.65) ** 2

        obj = SearchObjective(f)
        result = black_box_search(obj, k=2, budget=50, seed=0)
        grid = [i * 0.01 for i in range(101)]
        oracle = exhaustive_search_2d(SearchObjective(f), grid)
        assert result.best_value >= oracle.best_value - 1e-2
        assert obj.evaluations <= 50

    def test_never_leaves_feasible_set(self):
        visited = []

        def f(c):
            visited.append(c)
            return float(np.sin(7 * c[0]) + np.cos(5 * c[1]))

        black_box_search(SearchObjective(f), k=2, budget=50, seed=3)
        assert all(feasible(c) for c in visited)
        assert len(visited) <= 50

    def test_k1_close_to_grid_search(self):
        def f(c):
            return -abs(c[0] - 0.62)

        result = black_box_search(SearchObjective(f), k=1, budget=50, seed=0)
        reference = grid_search_1d(SearchObjective(f), default_grid())
        assert abs(result.best[0] - reference.best[0]) <= 0.05

    def test_deterministic_per_seed(self):
        def f(c):
            return float(np.sin(9 * c[0]) * np.cos(4 * c[1]))

        a = black_box_search(SearchObjective(f), k=2, budget=40, seed=7)
        b = black_box_search(SearchObjective(f), k=2, budget=40, seed=7)
        assert a.trace == b.trace

    @pytest.mark.parametrize("case", list(PINNED_TRACES))
    def test_evaluation_order_is_pinned(self, case):
        (f, k, budget, seed), points = PINNED_TRACES[case]
        obj = SearchObjective(f)
        result = black_box_search(obj, k=k, budget=budget, seed=seed)
        assert result.trace == [(p, f(p)) for p in points]
        assert obj.evaluations == len(points)

    def test_best_so_far_nondecreasing(self):
        def f(c):
            return -((c[0] - 0.2) ** 2)

        result = black_box_search(SearchObjective(f), k=1, budget=30, seed=1)
        best_so_far = -np.inf
        seq = []
        for _, value in result.trace:
            best_so_far = max(best_so_far, value)
            seq.append(best_so_far)
        assert seq == sorted(seq)
        assert result.best_value == max(v for _, v in result.trace)


class TestExhaustiveSearch2d:
    def test_feasibility_filter(self):
        obj = SearchObjective(lambda c: 0.0)
        result = exhaustive_search_2d(obj, [0.0, 1.0])
        points = {c for c, _ in result.trace}
        assert points == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)}

    def test_boundary_maximizer_lexicographic(self):
        result = exhaustive_search_2d(
            SearchObjective(lambda c: c[0] + c[1]), [0.0, 0.5, 1.0])
        assert result.best == (0.0, 1.0)

    def test_table_argmax(self):
        table = {
            (0.0, 0.0): 1.0, (0.0, 0.5): 2.0, (0.0, 1.0): 3.0,
            (0.5, 0.0): 4.0, (0.5, 0.5): 9.0,
            (1.0, 0.0): 5.0,
        }
        result = exhaustive_search_2d(
            SearchObjective(lambda c: table[c]), [0.0, 0.5, 1.0])
        assert result.best == (0.5, 0.5)
        assert result.best_value == 9.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_search_2d(SearchObjective(lambda c: 0.0), [])

    @pytest.mark.parametrize("grid", [[0.8], [0.6, 0.9]])
    def test_grid_with_no_feasible_pair_rejected(self, grid):
        obj = SearchObjective(lambda c: 0.0)
        with pytest.raises(ValueError, match=rf"grid \[{grid[0]}.*\] has no pair"):
            exhaustive_search_2d(obj, grid)
        assert obj.evaluations == 0


@pytest.mark.parametrize("kw, message", [
    ({"k": 0}, "k must be >= 1"),
    ({"k": 2, "budget": 0}, "budget must be >= 1"),
], ids=["k_below_1", "budget_below_1"])
def test_black_box_search_error_paths(kw, message):
    obj = SearchObjective(lambda coeffs: 0.0)
    with pytest.raises(ValueError) as info:
        black_box_search(obj, **kw)
    assert type(info.value) is ValueError and str(info.value) == message
    assert obj.evaluations == 0
