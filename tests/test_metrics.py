import os

import numpy as np
import pytest

from paintkit import (
    Frontier,
    FrontierPoint,
    cka,
    combined_accuracy,
    distance_to_endpoints,
    distance_to_optimal,
    path_correction_cost,
    sweep_to_frontier,
)

from conftest import DATA_DIR

MNIST_FIXTURE = os.path.join(DATA_DIR, "vit_l14_mnist_frontier.csv")

# Independently computed via exact fraction arithmetic on the 3x2 pair below.
CKA_3X2_REGRESSION = 0.7980238751210128


def frontier(points, unit="fraction"):
    return Frontier([FrontierPoint(*p) for p in points], unit)


def random_frontier(rng, n=11, unit="fraction"):
    alphas = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, n - 2)])
    alphas = np.unique(alphas)
    pts = [FrontierPoint(a, float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
           for a in alphas]
    return Frontier(pts, unit)


def brute_force_metrics(f):
    """Direct evaluation of all three frontier metrics from the point list."""
    xs = np.array([p.supported_acc for p in f.points])
    ys = np.array([p.patching_acc for p in f.points])
    combined = (xs + ys) / 2.0
    d_end = (xs[0] + ys[-1]) / 2.0 - combined.max()
    d_opt = (xs.max() + ys.max()) / 2.0 - combined.max()
    return float(d_end), float(d_opt)


def brute_force_path_cost(f, n_samples=10**6):
    """Distance to the ideal set via dense sampling of both its lines."""
    x0 = f.points[0].supported_acc
    y1 = f.points[-1].patching_acc
    hi = 100.0 if f.unit == "percent" else 1.0
    ts = np.linspace(0.0, hi, n_samples // 2)
    vline = np.stack([np.full_like(ts, x0), ts], axis=1)
    hline = np.stack([ts, np.full_like(ts, y1)], axis=1)
    ideal = np.concatenate([vline, hline])
    costs = []
    for p in f.points:
        if p.supported_acc < x0 and p.patching_acc < y1:
            d = np.sqrt(((ideal - [p.supported_acc, p.patching_acc]) ** 2).sum(axis=1))
            costs.append(d.min())
        else:
            costs.append(0.0)
    return float(np.mean(costs))


class TestFrontier:
    def test_requires_endpoints(self):
        with pytest.raises(ValueError):
            frontier([(0.0, 1, 1), (0.5, 1, 1)])

    def test_rejects_duplicate_alpha(self):
        with pytest.raises(ValueError):
            frontier([(0.0, 1, 1), (0.5, 1, 1), (0.5, 0, 0), (1.0, 1, 1)])

    def test_sorts_points(self):
        f = frontier([(1.0, 0.1, 0.9), (0.0, 0.9, 0.1), (0.5, 0.5, 0.5)])
        assert f.alphas == [0.0, 0.5, 1.0]

    def test_stores_a_negative_zero_alpha_as_zero(self, tmp_path):
        f = frontier([(-0.0, 0.9, 0.1), (1.0, 0.5, 0.8)])
        f.to_csv(tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_text().splitlines()[1] == "0.0,0.9,0.1"

    def test_reads_its_points_in_one_pass(self):
        # Checking the alphas in a pass of their own left a generator empty.
        f = Frontier((FrontierPoint(a, 0.5, 0.5) for a in (1.0, 0.0)), "fraction")
        assert f.alphas == [0.0, 1.0]

    def test_percent_bounds(self):
        with pytest.raises(ValueError):
            frontier([(0.0, 1.5, 0.5), (1.0, 0.5, 0.5)])  # fraction unit, >1

    def test_csv_roundtrip(self, tmp_path, rng):
        f = random_frontier(rng)
        path = tmp_path / "f.csv"
        f.to_csv(path)
        g = Frontier.from_csv(path, unit="fraction")
        assert g.alphas == f.alphas
        assert [p.supported_acc for p in g.points] == [p.supported_acc for p in f.points]

    @pytest.mark.parametrize("unit, scale", [("fraction", 1.0), ("percent", 100.0)])
    def test_records_roundtrip(self, rng, unit, scale):
        f = random_frontier(rng)
        f = Frontier([FrontierPoint(p.alpha, p.supported_acc * scale, p.patching_acc * scale)
                      for p in f.points], unit)
        g = Frontier.from_records(f.to_records(), f.unit)
        assert g.unit == unit
        assert g.points == f.points

    @pytest.mark.parametrize("field", ["alpha", "supported_acc", "patching_acc"])
    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_records_reject_non_numbers(self, field, value):
        records = frontier([(0.0, 0.9, 0.1), (1.0, 0.5, 0.8)]).to_records()
        records[1][field] = value
        name = "alpha" if field == "alpha" else "accuracy"
        with pytest.raises(ValueError) as info:
            Frontier.from_records(records, "fraction")
        assert str(info.value) == f"{name} must be a real number, got {value!r}"


class TestCombinedAccuracy:
    def test_table_row(self):
        # Published ViT-B/32 zero-shot results, ImageNet supported: 54.4.
        patching = [59.6, 44.1, 45.9, 32.4, 22.6, 48.3, 60.7, 63.1, 31.5]
        assert combined_accuracy([63.4], patching) == pytest.approx(54.4, abs=0.05)

    def test_symmetry(self):
        assert combined_accuracy([100], [0]) == 50

    def test_constant(self):
        assert combined_accuracy([7.0, 7.0], [7.0]) == pytest.approx(7.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combined_accuracy([], [1.0])

    def test_permutation_invariant(self, rng):
        a = list(rng.uniform(0, 100, 5))
        b = list(rng.uniform(0, 100, 7))
        assert combined_accuracy(a, b) == pytest.approx(
            combined_accuracy(a[::-1], list(reversed(b))), abs=1e-12)


class TestFrontierDistances:
    def test_two_point_frontier(self):
        f = frontier([(0.0, 0.9, 0.1), (1.0, 0.1, 0.9)])
        assert distance_to_endpoints(f) == pytest.approx(0.4, abs=1e-15)
        assert distance_to_optimal(f) == pytest.approx(0.4, abs=1e-15)

    def test_zero_when_endpoint_dominates(self):
        f = frontier([(0.0, 0.9, 0.9), (1.0, 0.5, 0.9)])
        # argmax of x+y is alpha=0 with x=x0; its y also equals y1
        assert distance_to_endpoints(f) == pytest.approx(0.0, abs=1e-15)

    def test_single_alpha_maximizes_both(self):
        f = frontier([(0.0, 0.5, 0.2), (0.5, 0.9, 0.9), (1.0, 0.3, 0.8)])
        assert distance_to_optimal(f) == pytest.approx(0.0, abs=1e-15)

    def test_mnist_column_fixture(self):
        f = Frontier.from_csv(MNIST_FIXTURE, unit="percent")
        assert len(f.points) == 21
        assert distance_to_endpoints(f) == pytest.approx(0.15, abs=1e-9)
        assert distance_to_optimal(f) == pytest.approx(0.20, abs=1e-9)

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            f = random_frontier(rng)
            d_end, d_opt = brute_force_metrics(f)
            assert distance_to_endpoints(f) == pytest.approx(d_end, abs=1e-12)
            assert distance_to_optimal(f) == pytest.approx(d_opt, abs=1e-12)
            assert distance_to_optimal(f) >= -1e-12

    def test_permutation_of_input_points(self, rng):
        f = random_frontier(rng)
        shuffled = list(f.points)
        rng.shuffle(shuffled)
        g = Frontier(shuffled, f.unit)
        assert distance_to_endpoints(g) == distance_to_endpoints(f)
        assert distance_to_optimal(g) == distance_to_optimal(f)
        assert path_correction_cost(g) == path_correction_cost(f)


class TestPathCorrectionCost:
    def test_all_points_on_ideal(self):
        f = frontier([(0.0, 0.8, 0.1), (0.5, 0.8, 0.5), (1.0, 0.8, 0.9)])
        assert path_correction_cost(f) == 0.0

    def test_hand_example(self):
        f = frontier([(0.0, 1.0, 0.2), (0.5, 0.8, 0.9), (1.0, 0.3, 1.0)])
        # only the middle point is strictly below both references:
        # delta = min(1.0 - 0.8, 1.0 - 0.9) = 0.1, averaged over 3 points
        assert path_correction_cost(f) == pytest.approx(0.1 / 3, abs=1e-9)

    def test_boundary_point_contributes_zero(self):
        f = frontier([(0.0, 0.7, 0.2), (0.5, 0.7, 0.5), (1.0, 0.4, 0.9)])
        assert path_correction_cost(f) == 0.0

    def test_matches_sampling_oracle(self, rng):
        for _ in range(10):
            f = random_frontier(rng, n=8)
            assert path_correction_cost(f) == pytest.approx(
                brute_force_path_cost(f, n_samples=200_000), abs=1e-5)


def brute_force_cka(a, b):
    """Direct elementwise evaluation without matrix-norm shortcuts."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    num = 0.0
    for i in range(b.shape[1]):
        for j in range(a.shape[1]):
            num += float(np.dot(b[:, i], a[:, j])) ** 2
    den_a = np.sqrt(sum(float(np.dot(a[:, i], a[:, j])) ** 2
                        for i in range(a.shape[1]) for j in range(a.shape[1])))
    den_b = np.sqrt(sum(float(np.dot(b[:, i], b[:, j])) ** 2
                        for i in range(b.shape[1]) for j in range(b.shape[1])))
    return num / (den_a * den_b)


class TestCka:
    def test_self_similarity(self, rng):
        a = rng.standard_normal((20, 5))
        assert cka(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_rotation_invariance(self, rng):
        a = rng.standard_normal((20, 5))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        assert cka(a, a @ q) == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_scaling_invariance(self, rng):
        a = rng.standard_normal((15, 4))
        b = rng.standard_normal((15, 6))
        assert cka(3.7 * a, b) == pytest.approx(cka(a, b), abs=1e-9)

    def test_pinned_3x2_pair(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        b = np.array([[2.0, 1.0], [0.0, -1.0], [-2.0, 0.0]])
        assert cka(a, b) == pytest.approx(CKA_3X2_REGRESSION, abs=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 15))
            a = rng.standard_normal((n, int(rng.integers(2, 6))))
            b = rng.standard_normal((n, int(rng.integers(2, 6))))
            assert cka(a, b) == pytest.approx(brute_force_cka(a, b), abs=1e-9)
            assert -1e-12 <= cka(a, b) <= 1.0 + 1e-12
            assert cka(a, b) == pytest.approx(cka(b, a), abs=1e-12)

    def test_row_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            cka(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            cka(np.ones((4, 2)), np.ones((4, 2)))


class TestSweepToFrontier:
    def test_passthrough(self):
        records = [(0.0, {"s": 0.9, "p": 0.1}), (1.0, {"s": 0.1, "p": 0.8})]
        f = sweep_to_frontier(records, ["s"], ["p"])
        assert f.unit == "fraction"
        assert f.points[0].supported_acc == 0.9
        assert f.points[-1].patching_acc == 0.8

    def test_dedup_identical(self):
        # A repeated alpha is the Frontier's one rule, even with equal values.
        records = [(0.0, {"s": 0.9, "p": 0.1}), (0.0, {"s": 0.9, "p": 0.1}),
                   (1.0, {"s": 0.1, "p": 0.8})]
        with pytest.raises(ValueError, match="duplicate alpha"):
            sweep_to_frontier(records, ["s"], ["p"])

    def test_conflicting_duplicate_rejected(self):
        records = [(0.0, {"s": 0.9, "p": 0.1}), (0.0, {"s": 0.8, "p": 0.1}),
                   (1.0, {"s": 0.1, "p": 0.8})]
        with pytest.raises(ValueError):
            sweep_to_frontier(records, ["s"], ["p"])

    def test_shuffled_input_sorted(self, rng):
        records = [(a, {"s": 0.5, "p": 0.5}) for a in [0.7, 0.0, 1.0, 0.3]]
        f = sweep_to_frontier(records, ["s"], ["p"])
        assert f.alphas == [0.0, 0.3, 0.7, 1.0]

    def test_missing_endpoint_rejected(self):
        with pytest.raises(ValueError):
            sweep_to_frontier([(0.5, {"s": 1, "p": 1})], ["s"], ["p"])

    def test_missing_task_rejected(self):
        with pytest.raises(ValueError):
            sweep_to_frontier([(0.0, {"s": 1}), (1.0, {"s": 1, "p": 1})],
                              ["s"], ["p"])


def write_frontier_csv(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("make, message", [
    (lambda tmp: Frontier.from_csv(write_frontier_csv(
        tmp / "f.csv", "alpha,supported,patching\n0,1,1\n1,1,1\n")),
     "bad frontier CSV header in {csv}"),
    (lambda tmp: Frontier.from_csv(write_frontier_csv(
        tmp / "f.csv", "alpha,supported_acc,patching_acc\n0,50,50\n0.5,60,60\n")),
     "{csv}: frontier must contain alpha=0 and alpha=1"),
    (lambda tmp: Frontier.from_csv(write_frontier_csv(
        tmp / "f.csv", "alpha,supported_acc,patching_acc\n0,50,50\n0,60,60\n1,70,70\n")),
     "{csv}: duplicate alpha in frontier"),
    (lambda tmp: Frontier([FrontierPoint(0, 1, 1), FrontierPoint(1, 1, 1)], "percents"),
     "unknown unit 'percents'"),
    (lambda tmp: Frontier([FrontierPoint(0, 1, 1), FrontierPoint(float("nan"), 1, 1),
                           FrontierPoint(1, 1, 1)], "fraction"),
     "alpha out of range: nan"),
    (lambda tmp: Frontier([FrontierPoint(0, 1, 1), FrontierPoint(1.5, 1, 1),
                           FrontierPoint(1, 1, 1)], "fraction"),
     "alpha out of range: 1.5"),
    (lambda tmp: cka(np.ones(3), np.ones(3)), "representation matrices must be 2-D"),
    (lambda tmp: cka(np.ones((1, 2)), np.ones((1, 2))), "need at least 2 samples"),
    (lambda tmp: cka(np.array([[1.0, 2.0], [np.inf, 1.0]]), np.ones((2, 2))),
     "non-finite entries"),
], ids=["csv_bad_header", "csv_no_alpha_1", "csv_repeated_alpha", "unknown_unit",
        "nan_alpha", "alpha_above_1", "cka_1d", "cka_one_sample", "cka_non_finite"])
def test_error_paths(tmp_path, make, message):
    with pytest.raises(ValueError) as info:
        make(tmp_path)
    assert type(info.value) is ValueError
    assert str(info.value) == message.format(csv=tmp_path / "f.csv")


@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
def test_nan_alpha_is_out_of_range_wherever_it_stands(tmp_path, where):
    # NaN compares false, so a sort may leave it at either end, in an
    # endpoint's place; it must still be reported as itself.
    alphas = [0.0, 1.0]
    alphas.insert(where, float("nan"))
    with pytest.raises(ValueError, match="^alpha out of range: nan$"):
        Frontier([FrontierPoint(a, 1, 1) for a in alphas], "fraction")
    path = write_frontier_csv(tmp_path / "f.csv", "alpha,supported_acc,patching_acc\n"
                              + "".join(f"{a},50,50\n" for a in alphas))
    with pytest.raises(ValueError) as info:
        Frontier.from_csv(path)
    assert str(info.value) == f"{path}: alpha out of range: nan"
