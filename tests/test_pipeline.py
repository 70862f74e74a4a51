import math
import time
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from paintkit import (
    Checkpoint,
    PatchResult,
    PatchSpec,
    evaluate,
    generate_tasks,
    lerp,
    multi_combine,
    patch_joint,
    patch_parallel,
    patch_sequential,
    patch_single,
    pretrain,
    reconstruct,
    run_patch,
    split_task,
    TaskDataset,
    TrainConfig,
)
from paintkit import pipeline
from paintkit.tensors import combine_rows
from paintkit.toylab import evaluate_stack


def lab(seed=0, partition=((0, 1, 2, 3), (4, 5), (6, 7), (8, 9)), noise=0.3,
        num_classes=10):
    """A pretrained model plus [supported, patch1, patch2, patch3] tasks."""
    tasks = generate_tasks(seed, num_classes=num_classes, dim=8, samples_per_class=20,
                           noise_scale=noise, partition=partition)
    cfg = TrainConfig(iterations=150, batch_size=32, lr=1e-2, warmup=10,
                      hidden=(16,), embed_dim=8, seed=seed)
    model = pretrain(cfg, [tasks[0]])
    return model, tasks, cfg


@pytest.fixture(scope="module")
def env():
    return lab()


def quick_train():
    return TrainConfig(iterations=60, batch_size=32, lr=1e-2, warmup=5,
                       hidden=(16,), embed_dim=8, seed=0)


def spec_for(env, strategy, patch_idx=(1,), **kw):
    model, tasks, _ = env
    return PatchSpec(
        model=model,
        patching_tasks=[tasks[i] for i in patch_idx],
        supported_tasks=[tasks[0]],
        strategy=strategy,
        alpha_grid=[i / 10 for i in range(11)],
        train=quick_train(),
        **kw,
    )


def count_calls(monkeypatch, name):
    """Wrap pipeline's binding `name`; the returned list gets one entry per call."""
    calls, real = [], getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


class TestPatchSingle:
    def test_endpoints_match_source_models(self, env):
        model, tasks, _ = env
        result = patch_single(spec_for(env, "single"))
        f = result.frontier
        zs_model = model
        ft_model = model.with_weights(result.fine_tuned[0])
        assert f.points[0].supported_acc == pytest.approx(
            evaluate(zs_model, tasks[0], "val"))
        assert f.points[-1].patching_acc == pytest.approx(
            evaluate(ft_model, tasks[1], "val"))

    def test_reconstruction_bit_exact(self, env):
        result = patch_single(spec_for(env, "single"))
        assert reconstruct(result).equal(result.patched.with_meta(
            reconstruct(result).meta))
        assert np.array_equal(reconstruct(result).flat(), result.patched.flat())

    def test_selection_uses_only_val(self, env):
        result = patch_single(spec_for(env, "single"))
        assert {split for _, split in result.access_log["selection"]} == {"val"}
        assert {split for _, split in result.access_log["report"]} == {"test"}

    def test_coefficient_on_grid(self, env):
        result = patch_single(spec_for(env, "single"))
        assert result.coefficients[0] in [i / 10 for i in range(11)]

    def test_deterministic(self, env):
        a = patch_single(spec_for(env, "single"))
        b = patch_single(spec_for(env, "single"))
        assert a.coefficients == b.coefficients
        assert np.array_equal(a.patched.flat(), b.patched.flat())

    def test_rejects_multiple_tasks(self, env):
        with pytest.raises(ValueError):
            patch_single(spec_for(env, "single", patch_idx=(1, 2)))


class TestPatchJoint:
    def test_single_task_reduces_to_single(self, env):
        a = patch_joint(spec_for(env, "joint"))
        b = patch_single(spec_for(env, "single"))
        assert a.coefficients == b.coefficients
        assert np.array_equal(a.patched.flat(), b.patched.flat())

    def test_reports_per_original_task(self, env):
        _, tasks, _ = env
        result = patch_joint(spec_for(env, "joint", patch_idx=(1, 2)))
        assert tasks[1].name in result.test_accuracies
        assert tasks[2].name in result.test_accuracies
        assert len(result.coefficients) == 1

    def test_records_joint_whatever_the_spec_strategy(self, env):
        # Each entry point names its own strategy, so a merged-task run is
        # "joint" even from a spec left at the default strategy.
        result = patch_joint(spec_for(env, "single", patch_idx=(1, 2)))
        assert result.provenance["strategy"] == "joint"

    def test_reconstruction(self, env):
        result = patch_joint(spec_for(env, "joint", patch_idx=(1, 2)))
        assert np.array_equal(reconstruct(result).flat(), result.patched.flat())


class TestPatchSequential:
    def test_k1_matches_single(self, env):
        a = patch_sequential(spec_for(env, "sequential"))
        b = patch_single(spec_for(env, "single"))
        assert a.coefficients == b.coefficients
        assert np.array_equal(a.patched.flat(), b.patched.flat())

    def test_reconstruction_bit_exact(self, env):
        result = patch_sequential(spec_for(env, "sequential", patch_idx=(1, 2, 3)))
        assert np.array_equal(reconstruct(result).flat(), result.patched.flat())

    def test_one_alpha_per_task(self, env):
        result = patch_sequential(spec_for(env, "sequential", patch_idx=(1, 2, 3)))
        assert len(result.coefficients) == 3
        assert len(result.provenance["task_order"]) == 3

    def test_selection_never_touches_test(self, env):
        result = patch_sequential(spec_for(env, "sequential", patch_idx=(1, 2)))
        assert {split for _, split in result.access_log["selection"]} == {"val"}

    def test_step_objective_excludes_unseen_tasks(self, env):
        # While patching the first task, the second task's val split must not
        # be evaluated yet; it may only appear later in the log.
        _, tasks, _ = env
        result = patch_sequential(spec_for(env, "sequential", patch_idx=(1, 2),
                                           order_seeds=(0,)))
        order = result.provenance["task_order"]
        log_names = [name for name, _ in result.access_log["selection"]]
        first_seen = {n: log_names.index(n) for n in set(log_names)}
        assert first_seen[order[0]] < first_seen[order[1]]

    def test_no_val_evaluation_after_last_sweep(self, env):
        # Step i scores the supported task plus the i tasks seen so far on
        # every grid point; the final model's val accuracies come from the
        # last step's sweep, not from another evaluation.
        spec = spec_for(env, "sequential", patch_idx=(1, 2, 3), order_seeds=(0,))
        result = patch_sequential(spec)
        n_sup = len(spec.supported_tasks)
        steps = len(spec.patching_tasks)
        expected = sum(len(spec.alpha_grid) * (n_sup + i) for i in range(1, steps + 1))
        assert len(result.access_log["selection"]) == expected
        assert set(result.val_accuracies) == set(result.test_accuracies)

    def test_builds_only_the_frontier_it_ships(self, env, monkeypatch):
        # Each step sweeps the ray; only the last step's sweep becomes the frontier.
        calls = count_calls(monkeypatch, "sweep_to_frontier")
        spec = spec_for(env, "sequential", patch_idx=(1, 2), order_seeds=(0,))
        result = patch_sequential(spec)
        assert len(calls) == 1
        assert [p.alpha for p in result.frontier.points] == list(spec.alpha_grid)

    def test_multiple_seeds_averaged(self, env):
        result = patch_sequential(spec_for(env, "sequential", patch_idx=(1, 2),
                                           order_seeds=(0, 1, 2)))
        assert len(result.per_seed) == 3
        names = list(result.test_accuracies)
        for n in names:
            manual = np.mean([r.test_accuracies[n] for r in result.per_seed])
            assert result.averaged_test_accuracies[n] == pytest.approx(manual)

    def test_seeds_share_no_state(self, env):
        # Seeds 0 and 2 give the same order of tasks 1-3; each seed's result
        # is the one a run of that seed alone gives.
        spec = spec_for(env, "sequential", patch_idx=(1, 2, 3), order_seeds=(0, 1, 2))
        result = patch_sequential(spec)
        orders = [r.provenance["task_order"] for r in result.per_seed]
        assert orders[0] == orders[2] != orders[1]
        for seed, r in zip(spec.order_seeds, result.per_seed):
            alone = patch_sequential(replace(spec, order_seeds=(seed,)))
            assert r.patched.flat().tobytes() == alone.patched.flat().tobytes()
            assert r.coefficients == alone.coefficients
            assert r.frontier.points == alone.frontier.points
            assert r.provenance == alone.provenance
            assert r.val_accuracies == alone.val_accuracies
            assert r.test_accuracies == alone.test_accuracies
            assert r.access_log == alone.access_log

    def test_orders_differ_across_seeds(self, env):
        result = patch_sequential(spec_for(env, "sequential", patch_idx=(1, 2, 3),
                                           order_seeds=tuple(range(8))))
        orders = {tuple(r.provenance["task_order"]) for r in result.per_seed}
        assert len(orders) > 1


class TestPatchParallel:
    def test_k1_reduces_to_single(self, env):
        a = patch_parallel(spec_for(env, "parallel", search="uniform"))
        b = patch_single(spec_for(env, "single"))
        assert a.coefficients == b.coefficients

    def test_uniform_coefficients_equal(self, env):
        result = patch_parallel(spec_for(env, "parallel", patch_idx=(1, 2),
                                         search="uniform"))
        assert len(set(result.coefficients)) == 1
        assert sum(result.coefficients) <= 1.0 + 1e-12

    def test_default_search_is_uniform(self, env):
        # A run that named no search recorded "grid", an alias of "uniform".
        result = patch_parallel(spec_for(env, "parallel", patch_idx=(1, 2)))
        assert result.provenance["search"] == "uniform"
        named = patch_parallel(spec_for(env, "parallel", patch_idx=(1, 2), search="uniform"))
        assert result.provenance == named.provenance

    def test_reconstruction_bit_exact(self, env):
        result = patch_parallel(spec_for(env, "parallel", patch_idx=(1, 2),
                                         search="uniform"))
        assert np.array_equal(reconstruct(result).flat(), result.patched.flat())

    def test_zero_coefficients_recover_zero_shot(self, env):
        model, tasks, _ = env
        result = patch_parallel(spec_for(env, "parallel", patch_idx=(1, 2),
                                         search="uniform"))
        zs_again = multi_combine(result.zero_shot, result.fine_tuned, [0.0, 0.0])
        assert zs_again.flat().tobytes() == model.ckpt.flat().tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_uniform_ships_the_ray_row_it_selected(self, env, k):
        spec = spec_for(env, "parallel", patch_idx=tuple(range(1, k + 1)), search="uniform")
        result = patch_parallel(spec)
        zs, fts, grid = result.zero_shot, result.fine_tuned, spec.alpha_grid
        ray = combine_rows(zs, fts, [[b / k] * k for b in grid])
        assert ray[grid.index(0.0)].tobytes() == zs.flat().tobytes()
        i = [beta / k for beta in grid].index(result.coefficients[0])
        assert result.coefficients == (grid[i] / k,) * k
        assert ray[i].tobytes() == result.patched.flat().tobytes()
        assert result.val_accuracies == {
            t.name: evaluate_stack(spec.model, ray[i : i + 1], t, "val")[0]
            for t in spec.supported_tasks + spec.patching_tasks}
        if k == 1:  # the ray of one model is the lerp grid
            for beta, row in zip(grid, ray):
                assert row.tobytes() == lerp(zs, fts[0], beta).flat().tobytes()

    def test_blackbox_feasible_and_competitive(self, env):
        uniform = patch_parallel(spec_for(env, "parallel", patch_idx=(1, 2),
                                          search="uniform"))
        blackbox = patch_parallel(spec_for(env, "parallel", patch_idx=(1, 2),
                                           search="blackbox", budget=50))
        coeffs = blackbox.coefficients
        assert all(0.0 <= c <= 1.0 for c in coeffs)
        assert sum(coeffs) <= 1.0 + 1e-9
        assert blackbox.provenance["best_value"] >= (
            uniform.provenance["best_value"] - 1e-6)

    def test_blackbox_alone_selects(self, env, monkeypatch):
        calls = count_calls(monkeypatch, "grid_search_1d")
        spec = spec_for(env, "parallel", patch_idx=(1, 2), search="blackbox", budget=10)
        result = patch_parallel(spec)
        assert calls == []
        assert result.provenance["search_evaluations"] <= spec.budget
        # The val report is the black-box search's record of the point it shipped.
        assert result.val_accuracies == {
            t.name: evaluate_stack(spec.model, result.patched.flat()[None], t, "val")[0]
            for t in spec.supported_tasks + spec.patching_tasks}

    def test_blackbox_with_six_tasks_stays_in_the_coefficient_bound(self):
        # The search's first point is 1/6 each; rounded to nearest at 12
        # decimals it sums to 1.000000000002, over combine_rows' bound.
        model, tasks, _ = lab(partition=((0, 1), (2, 3), (4, 5), (6, 7), (8, 9),
                                         (10, 11), (12, 13)), num_classes=14)
        spec = PatchSpec(model=model, patching_tasks=tasks[1:], supported_tasks=[tasks[0]],
                         strategy="parallel", search="blackbox", budget=20,
                         alpha_grid=[0.0, 0.5, 1.0],
                         train=replace(quick_train(), iterations=10))
        result = patch_parallel(spec)
        assert len(result.coefficients) == 6
        assert sum(result.coefficients) <= 1.0 + 1e-12
        assert np.array_equal(reconstruct(result).flat(), result.patched.flat())

    def test_uniform_scores_each_grid_point_once(self, env):
        # The uniform ray is both the search and the frontier: one val
        # evaluation per (grid point, task), none repeated for the report.
        spec = spec_for(env, "parallel", patch_idx=(1, 2), search="uniform")
        result = patch_parallel(spec)
        n_tasks = len(spec.supported_tasks) + len(spec.patching_tasks)
        assert len(result.access_log["selection"]) == len(spec.alpha_grid) * n_tasks
        assert result.provenance["search_evaluations"] == len(spec.alpha_grid)


class TestPatchSpecValidation:
    @pytest.mark.parametrize("kw", [
        {"alpha_grid": []},
        {"alpha_grid": [0.0, 0.5, 1.0, 1.5]},
        {"alpha_grid": [0.0, 0.5]},
        {"alpha_grid": [0.5, 1.0]},
        {"search": "bogus"},
    ])
    def test_rejects_bad_selection(self, env, kw):
        model, tasks, _ = env
        with pytest.raises(ValueError):
            PatchSpec(model=model, patching_tasks=[tasks[1], tasks[2]],
                      supported_tasks=[tasks[0]], strategy="parallel", **kw)

    @pytest.mark.parametrize("kw", [{"strategy": "bogus"}, {"budget": 0}])
    def test_rejects_bad_strategy_or_budget(self, env, kw):
        model, tasks, _ = env
        with pytest.raises(ValueError, match="strategy 'bogus'|budget must be >= 1"):
            PatchSpec(model=model, patching_tasks=[tasks[1]], supported_tasks=[tasks[0]],
                      **kw)

    def test_grid_is_not_a_search(self, env):
        with pytest.raises(ValueError) as info:
            spec_for(env, "parallel", patch_idx=(1, 2), search="grid")
        assert str(info.value) == "unknown search 'grid'; expected one of uniform, blackbox"

    def test_rejects_task_of_another_input_width(self, env):
        model, tasks, _ = env
        (narrow, _) = generate_tasks(0, num_classes=4, dim=5, samples_per_class=20,
                                     noise_scale=0.3, partition=((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="task 'task0' has 5 features, but the "
                                             "model takes 8 inputs"):
            PatchSpec(model=model, patching_tasks=[narrow], supported_tasks=[tasks[0]])

    def test_rejects_two_tasks_with_one_name(self, env):
        model, tasks, _ = env
        with pytest.raises(ValueError, match="two tasks are named 'task1'"):
            PatchSpec(model=model, patching_tasks=[tasks[1]],
                      supported_tasks=[tasks[0], tasks[1]])

    def test_rejects_a_repeated_order_seed(self, env):
        # Two copies of one order would count twice in the averages and
        # share one per-seed result file.
        model, tasks, _ = env
        with pytest.raises(ValueError, match=r"order seed 3 is repeated in \(3, 1, 3\)"):
            PatchSpec(model=model, patching_tasks=[tasks[1], tasks[2]],
                      supported_tasks=[tasks[0]], strategy="sequential",
                      order_seeds=(3, 1, 3))

    def test_names_the_first_repeated_order_seed(self):
        with pytest.raises(ValueError, match=r"order seed 1 is repeated in \(1, 2, 2, 1\)"):
            pipeline.check_selection({"order_seeds": (1, 2, 2, 1)})

    def test_rejects_a_repeated_alpha(self):
        # It was scored twice, yet the frontier kept one point for it.
        with pytest.raises(ValueError) as info:
            pipeline.check_selection({"alpha_grid": [0, 0.5, 0.5, 1]})
        assert str(info.value) == "alpha 0.5 is repeated in (0.0, 0.5, 0.5, 1.0)"

    def test_order_seed_check_is_linear(self):
        # `paintkit patch` runs the check twice before any work; a pairwise
        # count took about 40 s on these seeds.
        start = time.perf_counter()
        pipeline.check_selection({"order_seeds": range(50_000)})
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("kw", [
        {"strategy": "single"}, {"strategy": "sequential"},
        {"strategy": "parallel", "search": "blackbox"}])
    def test_rejects_no_order_seed(self, env, kw):
        # Sequential orders and the black-box search are seeded by order_seeds.
        model, tasks, _ = env
        with pytest.raises(ValueError, match="need at least one order seed"):
            PatchSpec(model=model, patching_tasks=[tasks[1], tasks[2]],
                      supported_tasks=[tasks[0]], order_seeds=(), **kw)

    @pytest.mark.parametrize("strategy, kw, message", [
        ("sequential", {"order_seeds": (0, -1)}, "order seed -1 must be an integer >= 0"),
        ("parallel", {"order_seeds": (-3,)}, "order seed -3 must be an integer >= 0"),
        ("sequential", {"order_seeds": (1, 0.5)}, "order seed 0.5 must be an integer"),
        ("single", {"order_seeds": (True,)}, "order seed True must be an integer"),
        ("parallel", {"budget": 2.5}, "budget must be >= 1 and an integer, got 2.5"),
        ("parallel", {"budget": np.float64(3.0)}, "budget must be >= 1 and an integer"),
    ], ids=["negative_sequential", "negative_blackbox", "float_seed", "bool_seed",
            "fractional_budget", "float_budget"])
    def test_rejects_a_seed_or_budget_before_fine_tuning(self, env, monkeypatch, strategy,
                                                          kw, message):
        # Each of these once fine-tuned first, then failed in numpy or ran
        # past its budget (2.5 scored 3 black-box points).
        finetunes = count_calls(monkeypatch, "finetune")
        with pytest.raises(ValueError, match=message):
            run_patch(spec_for(env, strategy, patch_idx=(1, 2), search="blackbox", **kw))
        assert finetunes == []

    def test_takes_numpy_integer_seeds_and_budget(self, env):
        spec = spec_for(env, "sequential", patch_idx=(1, 2),
                        order_seeds=(np.int64(2), np.uint8(0)), budget=np.int32(4))
        assert spec.order_seeds == (2, 0) and spec.budget == 4

    @pytest.mark.parametrize("roles, message", [
        ({"patching_tasks": [], "supported_tasks": [0]}, "need at least one patching task"),
        ({"patching_tasks": [1], "supported_tasks": []}, "need at least one supported task"),
    ], ids=["no_patching_task", "no_supported_task"])
    def test_rejects_a_missing_task_role(self, env, roles, message):
        model, tasks, _ = env
        with pytest.raises(ValueError) as info:
            PatchSpec(model=model, **{role: [tasks[i] for i in indices]
                                      for role, indices in roles.items()})
        assert type(info.value) is ValueError and str(info.value) == message

    def test_names_an_alpha_out_of_range(self, env):
        model, tasks, _ = env
        with pytest.raises(ValueError) as info:
            PatchSpec(model=model, patching_tasks=[tasks[1]], supported_tasks=[tasks[0]],
                      alpha_grid=(0, 1.5, 1))
        assert str(info.value) == "alpha out of range: 1.5"

    def test_stores_a_negative_zero_alpha_as_zero(self, env):
        # -0.0 passed `0.0 in grid` as the anchor and was shipped as the coefficient -0.0.
        model, tasks, _ = env
        spec = PatchSpec(model=model, patching_tasks=[tasks[1]], supported_tasks=[tasks[0]],
                         alpha_grid=(-0.0, 1.0))
        assert math.copysign(1.0, spec.alpha_grid[0]) == 1.0

    def test_is_frozen_and_stores_tuples_of_its_settings(self, env):
        model, tasks, _ = env
        spec = PatchSpec(model=model, patching_tasks=[tasks[1]], supported_tasks=[tasks[0]],
                         alpha_grid=[0, 1], order_seeds=[2, 1])
        assert spec.alpha_grid == (0.0, 1.0)
        assert all(type(a) is float for a in spec.alpha_grid)
        assert spec.order_seeds == (2, 1)
        with pytest.raises(FrozenInstanceError):
            spec.budget = 3
        # A changed copy is checked as it is built.
        with pytest.raises(ValueError, match="budget must be >= 1"):
            replace(spec, budget=0)

    @pytest.mark.parametrize("write, error", [
        (lambda spec, tasks: spec.supported_tasks.append(tasks[1]), AttributeError),
        (lambda spec, tasks: spec.patching_tasks.extend(tasks[2:]), AttributeError),
        (lambda spec, tasks: setattr(spec.train, "iterations", -3), FrozenInstanceError),
    ], ids=["append_supported", "extend_patching", "train_iterations"])
    def test_nothing_it_checked_can_change(self, env, write, error):
        # The spec's checks run once, when it is built, so a later write would
        # skip them: here the one-name check and the training checks.
        _, tasks, _ = env
        spec = spec_for(env, "single")
        with pytest.raises(error):
            write(spec, tasks)
        assert spec.supported_tasks == (tasks[0],)
        assert spec.patching_tasks == (tasks[1],)
        assert spec.train == quick_train()

    @pytest.mark.parametrize("role, split", [
        ("patching", "train"), ("patching", "val"), ("patching", "test"),
        ("supported", "val"), ("supported", "test"),
    ], ids=["patching_train", "patching_val", "patching_test", "supported_val",
            "supported_test"])
    def test_rejects_a_task_without_a_split_it_reads(self, env, monkeypatch, role, split):
        # A patching task without val rows was fine-tuned, and the run then
        # failed with a bare KeyError: 'val'.
        model, tasks, _ = env
        source = tasks[1] if role == "patching" else tasks[0]
        keep = source.row_splits != split
        nov = TaskDataset("nov", source.inputs[keep], source.labels[keep], source.class_ids,
                          source.row_splits[keep])
        roles = {"patching_tasks": [tasks[1]], "supported_tasks": [tasks[0]],
                 f"{role}_tasks": [nov]}
        finetunes = count_calls(monkeypatch, "finetune")
        with pytest.raises(ValueError) as info:
            run_patch(PatchSpec(model=model, train=quick_train(), **roles))
        assert str(info.value) == f"task 'nov' has no {split!r} split"
        assert info.traceback[-1].name == "__post_init__"
        assert finetunes == []

    def test_a_supported_task_needs_no_train_split(self, env):
        model, tasks, _ = env
        keep = tasks[0].row_splits != "train"
        sup = TaskDataset("sup", tasks[0].inputs[keep], tasks[0].labels[keep],
                          tasks[0].class_ids, tasks[0].row_splits[keep])
        spec = PatchSpec(model=model, patching_tasks=[tasks[1]], supported_tasks=[sup])
        assert spec.supported_tasks == (sup,)


class TestRunPatch:
    def test_dispatch(self, env):
        for strategy in ("single", "joint", "sequential"):
            result = run_patch(spec_for(env, strategy))
            assert result.provenance["strategy"] in ("single", "joint", "sequential")

    def test_unknown_strategy(self, env):
        # The strategy is checked when the spec is built, and it cannot change after.
        spec = spec_for(env, "single")
        with pytest.raises(FrozenInstanceError):
            spec.strategy = "mystery"
        with pytest.raises(ValueError, match="unknown strategy 'mystery'"):
            replace(spec, strategy="mystery")

    @pytest.mark.parametrize("strategy, patch_idx", [
        ("single", (1,)), ("joint", (1, 2)), ("sequential", (1, 2)), ("parallel", (1,))])
    def test_search_matters_only_to_parallel_with_two_or_more_tasks(self, env, strategy,
                                                                     patch_idx):
        # With one fine-tuned model per selection there is only the lerp
        # grid to sweep, so a black-box search and its budget change nothing.
        kw = {"order_seeds": (0, 1)} if strategy == "sequential" else {}
        grid = run_patch(spec_for(env, strategy, patch_idx, **kw))
        blackbox = run_patch(spec_for(env, strategy, patch_idx, search="blackbox", budget=3,
                                      **kw))
        assert len(grid.per_seed) == len(blackbox.per_seed)
        for a, b in zip([grid, *grid.per_seed], [blackbox, *blackbox.per_seed]):
            assert a.patched.equal(b.patched)
            assert a.patched.flat().tobytes() == b.patched.flat().tobytes()
            assert a.coefficients == b.coefficients
            assert a.frontier.points == b.frontier.points
            assert a.provenance == b.provenance
            assert a.access_log == b.access_log


def test_reconstruct_replays_steps_of_any_shape(env):
    # A k = 2 step and then a k = 1 step, a shape no strategy makes, and no
    # provenance: reconstruct reads only zero_shot and steps.
    model, _, _ = env
    rng = np.random.default_rng(0)
    fts = [Checkpoint({n: a + rng.normal(size=a.shape) for n, a in model.ckpt.items()})
           for _ in range(3)]
    steps = [(fts[:2], (0.3, 0.2)), (fts[2:], (0.6,))]
    result = PatchResult(patched=None, steps=steps, frontier=None, val_accuracies={},
                         test_accuracies={}, provenance={}, zero_shot=model.ckpt,
                         access_log={})
    expected = multi_combine(multi_combine(model.ckpt, fts[:2], (0.3, 0.2)), fts[2:], (0.6,))
    rebuilt = reconstruct(result)
    assert rebuilt.equal(expected) and rebuilt.meta == model.ckpt.meta
    assert result.coefficients == (0.3, 0.2, 0.6)
    assert result.fine_tuned == fts


class TestSplitTask:
    def test_disjoint_and_complete(self, env):
        _, tasks, _ = env
        for seed in range(20):
            proto = split_task(tasks[0], seed)
            a, b = set(proto.task_a.class_ids), set(proto.task_b.class_ids)
            assert a.isdisjoint(b)
            assert a | b == set(tasks[0].class_ids)
            assert abs(len(a) - len(b)) <= 1

    def test_examples_follow_labels(self, env):
        _, tasks, _ = env
        proto = split_task(tasks[0], 7)
        n = len(proto.task_a.labels) + len(proto.task_b.labels)
        assert n == len(tasks[0].labels)
        assert set(proto.task_a.labels.tolist()) <= set(proto.task_a.class_ids)

    def test_splits_preserved(self, env):
        _, tasks, _ = env
        proto = split_task(tasks[0], 3)
        for part in (proto.task_a, proto.task_b):
            total = sum(len(part.splits[s]) for s in ("train", "val", "test"))
            assert total == len(part.labels)

    def test_deterministic_per_seed(self, env):
        _, tasks, _ = env
        a = split_task(tasks[0], 11)
        b = split_task(tasks[0], 11)
        assert a.task_a.class_ids == b.task_a.class_ids

    @pytest.mark.parametrize("seed", [1.5, -1, True, np.float64(2.0)])
    def test_seed_is_an_integer_at_least_0(self, env, seed):
        # A float failed in numpy's SeedSequence and -1 with its own message;
        # True split as seed 1.
        _, tasks, _ = env
        with pytest.raises(ValueError) as info:
            split_task(tasks[0], seed)
        assert type(info.value) is ValueError
        assert str(info.value) == f"seed must be an integer >= 0, got {seed!r}"

    def test_single_class_rejected(self, env):
        _, tasks, _ = env
        proto = split_task(tasks[1], 0)
        with pytest.raises(ValueError):
            split_task(proto.task_a, 0)

    def test_returns_its_two_halves_and_unpacks(self, env):
        _, tasks, _ = env
        proto = split_task(tasks[0], 7)
        a, b = proto
        assert type(proto)._fields == ("task_a", "task_b")
        assert (a, b) == (proto.task_a, proto.task_b)
        assert (a.name, b.name) == (f"{tasks[0].name}_A", f"{tasks[0].name}_B")
