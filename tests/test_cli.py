import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from paintkit import (Checkpoint, PatchSpec, TaskDataset, ToyModel, TrainConfig, cka,
                      evaluate, generate_tasks, lerp, load_checkpoint, patch_single,
                      save_checkpoint)
from paintkit.cli import (
    KEYS,
    ConfigError,
    finite_float,
    main,
    non_negative_int,
    non_negative_ints,
    parse_config,
    parse_grid,
    parse_overrides,
    parse_partition,
    paths,
    truthy,
)

from conftest import DATA_DIR

MNIST_FIXTURE = os.path.join(DATA_DIR, "vit_l14_mnist_frontier.csv")


def run(args, capsys=None):
    code = main(args)
    return code


class TestConfigParsing:
    def test_file_plus_overrides(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("# comment\nseed = 3\nlr = 0.01\n\n")
        cfg = parse_config(str(cfg_path), {"lr": "0.1"})
        assert cfg == {"seed": "3", "lr": "0.1"}

    def test_unknown_key_names_the_key(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("mystery_knob = 1\n")
        with pytest.raises(ConfigError, match="mystery_knob"):
            parse_config(str(cfg_path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/run.cfg")

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_file_names_it(self, tmp_path, kind):
        if kind == "directory":
            path = tmp_path
        else:
            path = tmp_path / "bad.cfg"
            path.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
        with pytest.raises(ConfigError, match=f"cannot read config file {path}: "):
            parse_config(str(path))

    def test_malformed_line_has_lineno(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("seed = 1\nnot a pair\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(str(cfg_path))

    def test_overrides(self, tmp_path, capsys):
        assert parse_overrides(["--seed", "4", "--alpha_grid", "0:1:0.5"]) == {
            "seed": "4", "alpha_grid": "0:1:0.5"}
        # A key has one spelling, the config file's: a dash is not an underscore.
        assert parse_overrides(["--alpha-grid", "0:1:0.5"]) == {"alpha-grid": "0:1:0.5"}
        out = tmp_path / "out"
        assert main(["patch", "--zs_checkpoint", str(tmp_path / "missing.ckpt"),
                     "--patching_tasks", "a.csv", "--supported_tasks", "b.csv",
                     "--out_dir", str(out), "--alpha-grid", "0:1:0.5"]) == 1
        assert capsys.readouterr().err == "error: unknown config key: alpha-grid\n"
        assert not out.exists()
        with pytest.raises(ConfigError):
            parse_overrides(["seed", "4"])
        with pytest.raises(ConfigError):
            parse_overrides(["--seed"])

    def test_option_holding_an_equals_sign_is_named(self):
        # Read as a key, it took the next option as its value, and the error
        # named the value left over.
        for tokens, option in ((["--alpha_grid=-0,1", "--iterations", "30"], "--alpha_grid=-0,1"),
                               (["--seed", "1", "--lr=1"], "--lr=1")):
            with pytest.raises(ConfigError) as info:
                parse_overrides(tokens)
            assert str(info.value) == f"{option}: expected --key value"
        # A value may hold one, and a repeated key keeps its last value.
        assert parse_overrides(["--out_dir", "a=b", "--seed", "1", "--seed", "2"]) == {
            "out_dir": "a=b", "seed": "2"}

    def test_parse_grid(self):
        assert parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert len(parse_grid("0:1:0.05")) == 21
        assert parse_grid("0,0.5,1") == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("text, value", [
        ("0,1.5", "1.5"), ("0,nan,1", "nan"), ("-1e-9,1", "-1e-09"), ("0,inf", "inf"),
        ("0:2:0.5", "2.0"), ("-0.5:1:0.5", "-0.5"), ("nan:1:0.5", "nan")])
    def test_parse_grid_names_an_alpha_out_of_range(self, text, value):
        # A list was checked only later, by another rule, and a range by its own.
        with pytest.raises(ConfigError) as info:
            parse_grid(text)
        assert str(info.value) == f"alpha_grid {text!r}: alpha out of range: {value}"

    def test_parse_grid_stores_a_negative_zero_as_zero(self):
        for text in ("-0,1", "-0:1:0.5", "-0.0:-0.0:1"):
            grid = parse_grid(text)
            assert grid[0] == 0.0 and math.copysign(1.0, grid[0]) == 1.0, text

    @pytest.mark.parametrize("text, message", [
        ("0:1:0", "step must be > 0, got 0.0"), ("0:1:-0.1", "step must be > 0, got -0.1"),
        ("0:1:inf", "step must be finite, got inf"), ("0:1:nan", "step must be finite, got nan")])
    def test_parse_grid_names_a_bad_step(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_grid(text)
        assert str(info.value) == f"alpha_grid {text!r}: {message}"

    def test_parse_grid_rejects_bad_step_and_values(self):
        for text in ("0:1:0", "0:1:-0.1", "a,b", "0:1:x", "0:1", "0,nan,1", ""):
            with pytest.raises(ConfigError):
                parse_grid(text)

    def test_parse_grid_bounds_range_before_expanding(self):
        assert len(parse_grid("0:1:0.0001")) == 10001
        for text in ("0:1:1e-9", "0:1:5e-324", "-0.5:1:0.5", "0:1.5:0.5"):
            with pytest.raises(ConfigError):
                parse_grid(text)

    def test_parse_grid_never_passes_stop(self):
        assert parse_grid("0:1:0.6") == [0.0, 0.6]
        assert parse_grid("0:0.9:0.5") == [0.0, 0.5]
        assert parse_grid("0.2:0.2:0.5") == [0.2]
        # Within the tolerance of dividing the range, the last point is stop.
        assert parse_grid("0:1:0.50000000012") == [0.0, 0.5000000001, 1.0]
        with pytest.raises(ConfigError, match="start is above its stop: '0.5:0.2:0.1'"):
            parse_grid("0.5:0.2:0.1")

    def test_parse_grid_expands_grids_within_stop_as_before(self):
        def rounded_expansion(text):  # the expansion that rounded the point count
            start, stop, step = map(float, text.split(":"))
            n = int(round((stop - start) / step))
            return [round(start + i * step, 10) for i in range(n + 1)]

        # Every n up to 200, then a stride up to 10000: every n to 10000 takes
        # over a minute.
        ns = [*range(1, 201), *range(201, 10001, 97), 9999, 10000]
        for text in ["0:1:0.05", "0:1:0.02", "0:1:0.25", "0:1:0.0001", "0.1:0.9:0.1",
                     *(f"0:1:{1 / n!r}" for n in ns)]:
            assert parse_grid(text) == rounded_expansion(text), text

    def test_parse_partition(self):
        # Per group, a list of ranges: gen-tasks checks them before expanding.
        assert parse_partition("0-2|3,4") == [[range(0, 3)], [range(3, 4), range(4, 5)]]
        assert parse_partition("0-9|10-14") == [[range(0, 10)], [range(10, 15)]]

    def test_truthy_is_strict(self):
        for text in ("1", "true", "TRUE", "Yes"):
            assert truthy(text) is True
        for text in ("0", "false", "False", "NO"):
            assert truthy(text) is False
        for text in ("ture", "maybe", "", "2", "on"):
            with pytest.raises(ValueError):
                truthy(text)


class TestExitCodes:
    # Besides a made-up key, the keys no command reads: a config that still
    # sets one fails rather than having it silently ignored.
    @pytest.mark.parametrize("key", ["mystery", "pretrain", "pretrain_iterations",
                                     "ema_decay", "snapshot_every", "split_seed",
                                     "rep_a", "rep_b"])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        assert main(["metrics", "--frontier", MNIST_FIXTURE, "--out_dir", str(out),
                     f"--{key}", "1"]) == 1
        assert f"unknown config key: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_key_is_usage_error(self, capsys):
        assert main(["gen-tasks"]) == 1
        assert "out_dir" in capsys.readouterr().err

    def test_missing_data_is_runtime_error(self, tmp_path, capsys):
        code = main(["metrics", "--frontier", str(tmp_path / "missing.csv")])
        assert code == 2

    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["patch", "--config", str(tmp_path), "--out_dir", str(out)]) == 1
        assert f"error: cannot read config file {tmp_path}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["bogus"], [], ["patch", "--config"]],
                             ids=["unknown_command", "no_command", "config_without_path"])
    def test_bad_command_line_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_usage(self, capsys, flag):
        assert main(["patch", flag]) == 0
        assert capsys.readouterr().out.startswith("usage: paintkit ")

    def test_module_entry_point_prints_usage(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "paintkit.cli", "--help"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: paintkit ")

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"out_dir = {tmp_path / 'tasks'}\nseed = 0\nnum_classes = 4\n"
                       "dim = 4\nsamples_per_class = 20\nnoise_scale = 0.3\n")
        assert main(["gen-tasks", "--config", str(cfg), "--tasks", "0,1|2,3"]) == 0
        assert TaskDataset.from_csv(tmp_path / "tasks" / "task1.csv").class_ids == (2, 3)

    def test_success_is_zero(self, tmp_path):
        assert main(["gen-tasks", "--out_dir", str(tmp_path), "--seed", "0",
                     "--num_classes", "4", "--dim", "4",
                     "--samples_per_class", "20", "--noise_scale", "0.3",
                     "--tasks", "0,1|2,3"]) == 0


class TestGenTasks:
    def test_writes_task_files(self, tmp_path):
        main(["gen-tasks", "--out_dir", str(tmp_path), "--seed", "1",
              "--num_classes", "6", "--dim", "5", "--samples_per_class", "20",
              "--noise_scale", "0.2", "--tasks", "0-3|4,5"])
        t0 = TaskDataset.from_csv(tmp_path / "task0.csv", name="task0")
        t1 = TaskDataset.from_csv(tmp_path / "task1.csv", name="task1")
        assert t0.class_ids == (0, 1, 2, 3)
        assert t1.class_ids == (4, 5)

    def test_deterministic_reruns(self, tmp_path):
        args = ["gen-tasks", "--seed", "5", "--num_classes", "4", "--dim", "3",
                "--samples_per_class", "20", "--noise_scale", "0.1",
                "--tasks", "0,1|2,3"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(args + ["--out_dir", str(a_dir)])
        main(args + ["--out_dir", str(b_dir)])
        assert (a_dir / "task0.csv").read_bytes() == (b_dir / "task0.csv").read_bytes()

    def test_split_source_mode(self, tmp_path):
        main(["gen-tasks", "--out_dir", str(tmp_path), "--seed", "0",
              "--num_classes", "6", "--dim", "4", "--samples_per_class", "20",
              "--noise_scale", "0.2", "--tasks", "0-5"])
        out = tmp_path / "splits"
        code = main(["gen-tasks", "--out_dir", str(out),
                     "--split_source", str(tmp_path / "task0.csv"),
                     "--seed", "7"])
        assert code == 0
        a = TaskDataset.from_csv(out / "task0_A.csv", name="a")
        b = TaskDataset.from_csv(out / "task0_B.csv", name="b")
        assert set(a.class_ids).isdisjoint(b.class_ids)
        assert set(a.class_ids) | set(b.class_ids) == set(range(6))

    def test_both_modes_print_one_line_per_file_written(self, tmp_path, capsys):
        main(["gen-tasks", "--out_dir", str(tmp_path), "--seed", "0",
              "--num_classes", "6", "--dim", "4", "--samples_per_class", "20",
              "--noise_scale", "0.2", "--tasks", "0-3|4,5"])
        assert capsys.readouterr().out == "".join(
            f"wrote {tmp_path / name}\n" for name in ("task0.csv", "task1.csv"))
        out = tmp_path / "splits"
        assert main(["gen-tasks", "--out_dir", str(out), "--split_source",
                     str(tmp_path / "task0.csv"), "--seed", "7"]) == 0
        assert capsys.readouterr().out == "".join(
            f"wrote {out / name}\n" for name in ("task0_A.csv", "task0_B.csv"))

    @pytest.mark.parametrize("tasks, outside", [
        ("0-1|2-4", 4),
        ("0-1|2-1000000000000", 4),
        ("0,1|2,3,1000000000000-1000000000001", 1000000000000),
    ], ids=["range_end", "range_end_1e12", "range_start_1e12"])
    def test_class_id_outside_num_classes_is_usage_error_before_expanding(
            self, tmp_path, capsys, tasks, outside):
        # A range is checked by its bounds: a list of 10**12 ids could not be built.
        out = tmp_path / "out"
        assert main(["gen-tasks", "--out_dir", str(out), "--seed", "0", "--num_classes", "4",
                     "--dim", "3", "--samples_per_class", "20", "--noise_scale", "0.1",
                     "--tasks", tasks]) == 1
        assert capsys.readouterr().err == f"error: class id {outside} outside [0, 4)\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated tasks plus a pretrained zero-shot checkpoint on disk."""
    root = tmp_path_factory.mktemp("cli_ws")
    assert main(["gen-tasks", "--out_dir", str(root), "--seed", "0",
                 "--num_classes", "8", "--dim", "6", "--samples_per_class", "20",
                 "--noise_scale", "0.3", "--tasks", "0-3|4,5|6,7"]) == 0
    assert main(["pretrain", "--pretrain_tasks", str(root / "task0.csv"),
                 "--out_dir", str(root), "--iterations", "150",
                 "--batch_size", "32", "--lr", "0.01", "--warmup", "10",
                 "--hidden", "16", "--embed_dim", "8"]) == 0
    return root


def patch_args(root, out, extra=()):
    return ["patch",
            "--zs_checkpoint", str(root / "zero_shot.ckpt"),
            "--patching_tasks", str(root / "task1.csv"),
            "--supported_tasks", str(root / "task0.csv"),
            "--out_dir", str(out),
            "--alpha_grid", "0:1:0.05",
            "--iterations", "60", "--batch_size", "32", "--lr", "0.01",
            "--warmup", "5", "--hidden", "16", "--embed_dim", "8",
            *extra]


def command_args(workspace, tmp_path, extra):
    """Arguments that run `extra` under the command it starts with, else
    under `patch`, writing into `tmp_path` (gen-tasks: a new directory in it).
    A missing checkpoint would exit 2 once loaded, so exit 1 and an empty
    `tmp_path` show that a usage error is found before anything is loaded,
    trained or written."""
    missing = str(tmp_path / "missing.ckpt")
    if extra[0] == "pretrain":
        return ["pretrain", "--pretrain_tasks", str(workspace / "task0.csv"),
                "--out_dir", str(tmp_path), *extra[1:]]
    if extra[0] == "gen-tasks":
        return ["gen-tasks", "--out_dir", str(tmp_path / "new"), "--seed", "0",
                "--num_classes", "4", "--dim", "3", "--samples_per_class", "20",
                "--noise_scale", "0.1", "--tasks", "0,1|2,3", *extra[1:]]
    if extra[0] == "finetune":
        return ["finetune", "--zs_checkpoint", missing, "--task",
                str(workspace / "task1.csv"), "--out_dir", str(tmp_path), *extra[1:]]
    args = patch_args(workspace, tmp_path, extra)
    args[args.index("--zs_checkpoint") + 1] = missing
    return args


class TestPretrainFinetunePatch:
    def test_pretrain_writes_checkpoint(self, workspace):
        ckpt = load_checkpoint(workspace / "zero_shot.ckpt")
        assert "enc.w0" in ckpt.names()

    def test_finetune_writes_checkpoint(self, workspace, tmp_path):
        code = main(["finetune", "--zs_checkpoint", str(workspace / "zero_shot.ckpt"),
                     "--task", str(workspace / "task1.csv"),
                     "--out_dir", str(tmp_path),
                     "--iterations", "40", "--batch_size", "32", "--lr", "0.01",
                     "--warmup", "5"])
        assert code == 0
        ft = load_checkpoint(tmp_path / "finetuned_task1.ckpt")
        zs = load_checkpoint(workspace / "zero_shot.ckpt")
        assert not np.array_equal(ft.flat(), zs.flat())

    def test_patch_outputs(self, workspace, tmp_path):
        assert main(patch_args(workspace, tmp_path)) == 0
        assert (tmp_path / "patched.ckpt").exists()
        lines = (tmp_path / "frontier.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha,supported_acc,patching_acc"
        assert len(lines) == 22  # header + 21 grid points
        result = json.loads((tmp_path / "patch_result.json").read_text())
        assert result["strategy"] == "single"
        assert 0.0 <= result["coefficients"][0] <= 1.0
        assert "timestamp" in result

    def test_rerun_identical_apart_from_timestamp(self, workspace, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(patch_args(workspace, a_dir))
        main(patch_args(workspace, b_dir))
        assert (a_dir / "patched.ckpt").read_bytes() == (b_dir / "patched.ckpt").read_bytes()
        assert (a_dir / "frontier.csv").read_bytes() == (b_dir / "frontier.csv").read_bytes()
        a = json.loads((a_dir / "patch_result.json").read_text())
        b = json.loads((b_dir / "patch_result.json").read_text())
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b

    def test_sequential_writes_per_seed(self, workspace, tmp_path):
        args = patch_args(workspace, tmp_path,
                          ["--strategy", "sequential", "--order_seeds", "0,1"])
        args[args.index("--patching_tasks") + 1] = ",".join(
            [str(workspace / "task1.csv"), str(workspace / "task2.csv")])
        assert main(args) == 0
        assert (tmp_path / "patch_result_seed0.json").exists()
        assert (tmp_path / "patch_result_seed1.json").exists()
        result = json.loads((tmp_path / "patch_result.json").read_text())
        assert len(result["coefficients"]) == 2
        assert result["averaged_test_accuracies"]
        assert result["inputs"]["patching_tasks"] == args[args.index("--patching_tasks") + 1]
        for seed in (0, 1):
            seed_result = json.loads((tmp_path / f"patch_result_seed{seed}.json").read_text())
            assert seed_result["inputs"] == result["inputs"]

    def test_two_run_chain_records_its_inputs(self, workspace, tmp_path):
        # README's chain: a second run patches task2 onto the first run's model.
        first, second = tmp_path / "patch", tmp_path / "patch2"
        assert main(patch_args(workspace, first)) == 0
        args = patch_args(workspace, second)
        args[args.index("--zs_checkpoint") + 1] = str(first / "patched.ckpt")
        args[args.index("--patching_tasks") + 1] = str(workspace / "task2.csv")
        assert main(args) == 0
        inputs = [json.loads((out / "patch_result.json").read_text())["inputs"]
                  for out in (first, second)]
        supported = str(workspace / "task0.csv")
        assert inputs == [
            {"zs_checkpoint": str(workspace / "zero_shot.ckpt"),
             "patching_tasks": str(workspace / "task1.csv"), "supported_tasks": supported},
            {"zs_checkpoint": str(first / "patched.ckpt"),
             "patching_tasks": str(workspace / "task2.csv"), "supported_tasks": supported},
        ]

    @pytest.mark.parametrize("strategy", ["single", "joint", "sequential", "parallel"])
    def test_patched_checkpoint_starts_a_later_run(self, workspace, tmp_path, strategy):
        # Patching one task after another across runs: a later finetune or
        # patch starts from an earlier run's patched.ckpt.
        first = tmp_path / "first"
        args = patch_args(workspace, first, ["--strategy", strategy])
        if strategy != "single":
            args[args.index("--patching_tasks") + 1] = ",".join(
                [str(workspace / "task1.csv"), str(workspace / "task2.csv")])
        assert main(args) == 0
        patched = first / "patched.ckpt"
        zs = load_checkpoint(workspace / "zero_shot.ckpt")
        assert load_checkpoint(patched).meta == zs.meta
        second = patch_args(workspace, tmp_path / "second", ["--strategy", "single"])
        second[second.index("--zs_checkpoint") + 1] = str(patched)
        assert main(second) == 0
        training = second[second.index("--iterations"):second.index("--strategy")]
        assert main(["finetune", "--zs_checkpoint", str(patched), "--task",
                     str(workspace / "task2.csv"), "--out_dir", str(tmp_path / "ft"),
                     *training]) == 0

    @pytest.mark.parametrize("command, key, value, shown, held", [
        ("patch", "hidden", "999,1", "(999, 1)", "(16,)"),
        ("patch", "embed_dim", "3", "3", "8"),
        ("patch", "logit_scale", "1", "1.0", "20.0"),
        ("finetune", "hidden", "16,16", "(16, 16)", "(16,)"),
        ("finetune", "embed_dim", "16", "16", "8"),
        ("finetune", "logit_scale", "20.5", "20.5", "20.0"),
    ])
    def test_model_setting_unlike_the_checkpoint_is_usage_error(
            self, workspace, tmp_path, capsys, command, key, value, shown, held):
        out = tmp_path / "out"
        if command == "patch":
            args = patch_args(workspace, out, [f"--{key}", value])
        else:
            args = ["finetune", "--zs_checkpoint", str(workspace / "zero_shot.ckpt"),
                    "--task", str(workspace / "task1.csv"), "--out_dir", str(out),
                    f"--{key}", value]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"error: {key} is {shown}, but {workspace / 'zero_shot.ckpt'} has {key} {held}\n")
        assert not out.exists()

    def test_model_settings_like_the_checkpoint_are_accepted(self, workspace, tmp_path):
        assert main(["finetune", "--zs_checkpoint", str(workspace / "zero_shot.ckpt"),
                     "--task", str(workspace / "task1.csv"), "--out_dir", str(tmp_path),
                     "--iterations", "10", "--warmup", "2", "--hidden", "16",
                     "--embed_dim", "8", "--logit_scale", "20"]) == 0

    def test_float32_zero_shot_patches_in_float32(self, workspace, tmp_path):
        zs = load_checkpoint(workspace / "zero_shot.ckpt")
        zs32 = Checkpoint({n: a.astype(np.float32) for n, a in zs.items()}, zs.meta)
        path = tmp_path / "zs32.ckpt"
        save_checkpoint(zs32, path)
        args = patch_args(workspace, tmp_path / "patch")
        args[args.index("--zs_checkpoint") + 1] = str(path)
        assert main(args) == 0
        training = args[args.index("--iterations"):]
        assert main(["finetune", "--zs_checkpoint", str(path), "--task",
                     str(workspace / "task1.csv"), "--out_dir", str(tmp_path / "ft"),
                     *training]) == 0
        patched = load_checkpoint(tmp_path / "patch" / "patched.ckpt")
        ft = load_checkpoint(tmp_path / "ft" / "finetuned_task1.ckpt")
        assert patched.dtype == ft.dtype == np.float32
        result = json.loads((tmp_path / "patch" / "patch_result.json").read_text())
        (alpha,) = result["coefficients"]
        assert lerp(zs32, ft, alpha).equal(patched)

    @pytest.mark.parametrize("role", ["supported", "patching"])
    def test_two_tasks_with_one_name_is_usage_error(self, workspace, tmp_path, capsys, role):
        # The second file is never read: task names come from file names.
        first, second = workspace / "task0.csv", tmp_path / "other" / "task0.csv"
        if role == "patching":
            first = second = workspace / "task1.csv"
        args = patch_args(workspace, tmp_path / "out")
        args[args.index(f"--{role}_tasks") + 1] = f"{first},{second}"
        assert main(args) == 1
        name = first.stem
        assert f"two tasks are named '{name}': {first} and {second}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would fail the run
    def test_diverging_run_reports_one_error_line(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(patch_args(workspace, out, ["--weight_decay", "1e300"])) == 2
        assert capsys.readouterr().err == "error: non-finite loss at step 3: nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "split_source"])
    def test_failed_run_leaves_no_out_dir(self, workspace, tmp_path, capsys, command):
        out = tmp_path / "out"
        train = ["--out_dir", str(out), "--iterations", "60", "--batch_size", "32",
                 "--lr", "0.01", "--warmup", "5", "--hidden", "16", "--embed_dim", "8",
                 "--weight_decay", "1e300"]
        if command == "pretrain":
            args = ["pretrain", "--pretrain_tasks", str(workspace / "task0.csv"), *train]
        elif command == "finetune":
            args = ["finetune", "--zs_checkpoint", str(workspace / "zero_shot.ckpt"),
                    "--task", str(workspace / "task1.csv"), *train]
        else:
            task = TaskDataset.from_csv(workspace / "task1.csv")
            keep = task.labels == 4
            TaskDataset("one", task.inputs[keep], task.labels[keep], (4,),
                        task.row_splits[keep]).to_csv(tmp_path / "one.csv")
            args = ["gen-tasks", "--split_source", str(tmp_path / "one.csv"),
                    "--out_dir", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert ("single-class" if command == "split_source" else "non-finite loss") in err
        assert not out.exists()

    def test_out_dir_of_an_earlier_run_is_usage_error(self, workspace, tmp_path, capsys):
        # A single run beside a sequential run's per-seed results would be
        # dropped by `report`, so the second run is refused before it loads
        # anything: its checkpoint is missing, which would exit 2.
        out = tmp_path / "out"
        args = patch_args(workspace, out, ["--strategy", "sequential", "--order_seeds", "0,1,2"])
        args[args.index("--patching_tasks") + 1] = ",".join(
            [str(workspace / "task1.csv"), str(workspace / "task2.csv")])
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        args = patch_args(workspace, out)
        args[args.index("--zs_checkpoint") + 1] = str(tmp_path / "missing.ckpt")
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'patch_result.json'} exists: out_dir holds an earlier patch run\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    @pytest.mark.parametrize("command", ["gen-tasks", "pretrain", "finetune", "patch",
                                         "metrics"])
    def test_out_dir_that_is_a_file_is_usage_error_before_any_work(self, workspace,
                                                                    tmp_path, capsys,
                                                                    command, target):
        # Each command would otherwise succeed, so only the out_dir fails it,
        # and before any training rather than at the first write.
        (tmp_path / "afile").write_bytes(b"kept")
        out = str(tmp_path / target)
        train = ["--iterations", "60", "--batch_size", "32", "--lr", "0.01", "--warmup", "5"]
        args = {
            "gen-tasks": ["gen-tasks", "--seed", "0", "--num_classes", "4", "--dim", "3",
                          "--samples_per_class", "20", "--noise_scale", "0.1",
                          "--tasks", "0,1|2,3"],
            "pretrain": ["pretrain", "--pretrain_tasks", str(workspace / "task0.csv"),
                         "--hidden", "16", "--embed_dim", "8", *train],
            "finetune": ["finetune", "--zs_checkpoint", str(workspace / "zero_shot.ckpt"),
                         "--task", str(workspace / "task1.csv"), *train],
            "patch": patch_args(workspace, out),
            "metrics": ["metrics", "--frontier", MNIST_FIXTURE],
        }[command]
        assert main([*args, "--out_dir", out]) == 1
        where = "" if target == "afile" else f" (its ancestor {tmp_path / 'afile'})"
        assert capsys.readouterr().err == f"error: out_dir {out}{where} is not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_bytes() == b"kept"

    @pytest.mark.parametrize("command", ["gen-tasks", "pretrain", "finetune", "patch",
                                         "metrics", "report"])
    def test_empty_out_dir_is_usage_error_before_any_work(self, workspace, tmp_path,
                                                          monkeypatch, capsys, command):
        results = tmp_path / "results"
        results.mkdir()
        (results / "patch_result.json").write_text(result_json([(0.0, 0.9, 0.1)]))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        zs = str(workspace / "zero_shot.ckpt")
        train = ["--iterations", "60", "--batch_size", "32", "--lr", "0.01", "--warmup", "5"]
        args = {
            "gen-tasks": ["gen-tasks", "--seed", "0", "--num_classes", "4", "--dim", "3",
                          "--samples_per_class", "20", "--noise_scale", "0.1",
                          "--tasks", "0,1|2,3"],
            "pretrain": ["pretrain", "--pretrain_tasks", str(workspace / "task0.csv"),
                         "--hidden", "16", "--embed_dim", "8", *train],
            "finetune": ["finetune", "--zs_checkpoint", zs,
                         "--task", str(workspace / "task1.csv"), *train],
            "patch": patch_args(workspace, ""),
            "metrics": ["metrics", "--ckpt_a", zs, "--ckpt_b", zs],
            "report": ["report", "--results_dir", str(results)],
        }[command]
        assert main([*args, "--out_dir", ""]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: out_dir is empty\n")
        assert list(cwd.iterdir()) == []
        assert [p.name for p in results.iterdir()] == ["patch_result.json"]

    @pytest.mark.parametrize("trailing_comma", [False, True], ids=["empty", "trailing_comma"])
    @pytest.mark.parametrize("key", ["zs_checkpoint", "patching_tasks", "supported_tasks",
                                     "pretrain_tasks", "task", "split_source", "frontier",
                                     "ckpt_a", "ckpt_b", "results_dir"])
    def test_empty_path_is_usage_error_before_any_work(self, workspace, tmp_path,
                                                       monkeypatch, capsys, key,
                                                       trailing_comma):
        # Each command reads the key and would otherwise succeed, so only the
        # empty path, alone or after a comma, fails it.
        results = tmp_path / "results"
        results.mkdir()
        (results / "patch_result.json").write_text(result_json([(0.0, 0.9, 0.1)]))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        out = tmp_path / "out"
        zs = str(workspace / "zero_shot.ckpt")
        train = ["--iterations", "60", "--batch_size", "32", "--lr", "0.01", "--warmup", "5"]
        args = {
            "pretrain_tasks": ["pretrain", "--pretrain_tasks", str(workspace / "task0.csv"),
                               "--hidden", "16", "--embed_dim", "8", *train],
            "task": ["finetune", "--zs_checkpoint", zs,
                     "--task", str(workspace / "task1.csv"), *train],
            "split_source": ["gen-tasks", "--split_source", str(workspace / "task1.csv")],
            "frontier": ["metrics", "--frontier", MNIST_FIXTURE],
            "ckpt_a": ["metrics", "--ckpt_a", zs, "--ckpt_b", zs],
            "ckpt_b": ["metrics", "--ckpt_a", zs, "--ckpt_b", zs],
            "results_dir": ["report", "--results_dir", str(results)],
        }.get(key, patch_args(workspace, out))
        i = args.index(f"--{key}") + 1
        args[i] = f"{args[i]}," if trailing_comma else ""
        assert main([*args, "--out_dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: invalid {key}: {args[i]!r}\n")
        assert list(cwd.iterdir()) == []
        assert not out.exists()
        assert [p.name for p in results.iterdir()] == ["patch_result.json"]

    def test_grid_is_not_a_search(self, workspace, tmp_path, capsys):
        # "grid" was an alias of "uniform"; it is a usage error before anything loads.
        args = command_args(workspace, tmp_path, ["--strategy", "parallel", "--search", "grid"])
        assert main(args) == 1
        assert capsys.readouterr().err == ("error: unknown search 'grid'; "
                                           "expected one of uniform, blackbox\n")
        assert list(tmp_path.iterdir()) == []

    def test_parallel_strategy(self, workspace, tmp_path):
        args = patch_args(workspace, tmp_path,
                          ["--strategy", "parallel", "--search", "uniform"])
        args[args.index("--patching_tasks") + 1] = ",".join(
            [str(workspace / "task1.csv"), str(workspace / "task2.csv")])
        assert main(args) == 0
        result = json.loads((tmp_path / "patch_result.json").read_text())
        assert len(result["coefficients"]) == 2
        assert len(set(result["coefficients"])) == 1

    @pytest.mark.parametrize("extra", [
        ["--alpha_grid", "0:1:0"],
        ["--alpha_grid", "a,b"],
        ["--alpha_grid", "0:-1:0.5"],
        ["--alpha_grid", "0,0.5"],
        ["--alpha_grid", "0.5,1"],
        ["--alpha_grid", "0,0.5,1,1.5"],
        ["--strategy", "parallel", "--search", "bogus"],
        ["--alpha_grid", "0:1:1e-9"],
        ["--alpha_grid", "0:2:0.5"],
        ["--strategy", "bogus"],
        ["--budget", "x"],
        ["--order_seeds", "a"],
        ["--iterations", "x"],
        ["--iterations", "3"],  # below the warmup of 5
        ["pretrain", "--iterations", "20"],  # below the default warmup
        ["finetune", "--iterations", "50", "--warmup", "100"],
        ["gen-tasks", "--seed", "x"],
        ["gen-tasks", "--tasks", "0,a|2,3"],
        ["--strategy", "parallel", "--search", "blackbox", "--budget", "0"],
        ["--strategy", "sequential", "--order_seeds", "0,0"],
    ])
    def test_bad_selection_is_usage_error_before_training(self, workspace, tmp_path,
                                                          capsys, extra):
        assert main(command_args(workspace, tmp_path, extra)) == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid, value", [("0,1.5", "1.5"), ("0:2:0.5", "2.0")])
    def test_alpha_out_of_range_is_usage_error_before_any_work(self, workspace, tmp_path,
                                                               capsys, grid, value):
        assert main(command_args(workspace, tmp_path, ["--alpha_grid", grid])) == 1
        assert capsys.readouterr().err == (
            f"error: alpha_grid {grid!r}: alpha out of range: {value}\n")
        assert list(tmp_path.iterdir()) == []

    def test_option_holding_an_equals_sign_is_usage_error_naming_it(self, workspace,
                                                                    tmp_path, capsys):
        # It was read as the key "alpha_grid=-0,1" with the value "--iterations",
        # and the error named the "30" left over.
        extra = ["--alpha_grid=-0,1", "--iterations", "30"]
        assert main(command_args(workspace, tmp_path, extra)) == 1
        assert capsys.readouterr().err == "error: --alpha_grid=-0,1: expected --key value\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_zero_alpha_is_written_as_zero(self, workspace, tmp_path):
        # Both models score alike here, so the grid search picks the smaller
        # alpha: -0.0, which was shipped and written as it was given.
        out = tmp_path / "out"
        assert main(patch_args(workspace, out, ["--alpha_grid", "-0,1"])) == 0
        with open(out / "frontier.csv", newline="") as f:
            assert [row[0] for row in csv.reader(f)] == ["alpha", "0.0", "1.0"]
        text = (out / "patch_result.json").read_text()
        (alpha,) = json.loads(text)["coefficients"]
        assert alpha == 0.0 and math.copysign(1.0, alpha) == 1.0 and "-0.0" not in text

    @pytest.mark.parametrize("extra, key", [
        (["--seed", "-1"], "seed"),
        (["pretrain", "--seed", "-1"], "seed"),
        (["finetune", "--seed", "-1"], "seed"),
        (["gen-tasks", "--split_source", "missing.csv", "--seed", "-1"], "seed"),
        (["--strategy", "sequential", "--order_seeds", "0,-1"], "order_seeds"),
        (["--hidden", "0"], "hidden"),
        (["pretrain", "--hidden", "16,0"], "hidden"),
        (["pretrain", "--embed_dim", "0"], "embed_dim"),
        (["finetune", "--iterations", "-3", "--warmup", "-4"], "iterations"),
        (["pretrain", "--warmup", "-2"], "warmup"),
        (["pretrain", "--logit_scale", "0"], "logit_scale"),
        (["--logit_scale", "-3"], "logit_scale"),
        (["finetune", "--l2_init", "-1"], "l2_init"),
        (["--l2_init", "-0.5"], "l2_init"),
        (["finetune", "--weight_decay", "-5"], "weight_decay"),
        (["--weight_decay", "-0.1"], "weight_decay"),
    ], ids=["patch_seed", "pretrain_seed", "finetune_seed", "split_seed", "order_seeds",
            "patch_hidden", "pretrain_hidden", "embed_dim", "iterations", "warmup",
            "logit_scale_0", "logit_scale_negative", "finetune_l2_init", "patch_l2_init",
            "finetune_weight_decay", "patch_weight_decay"])
    def test_out_of_range_setting_is_usage_error_naming_it(self, workspace, tmp_path,
                                                           capsys, extra, key):
        assert main(command_args(workspace, tmp_path, extra)) == 1
        assert key in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, key", [("finetune", "task"),
                                              ("gen-tasks", "split_source")])
    def test_several_paths_for_a_one_path_key_is_usage_error(self, workspace, tmp_path,
                                                             capsys, command, key):
        paths = f"{workspace / 'task1.csv'},{workspace / 'task2.csv'}"
        assert main(command_args(workspace, tmp_path, [command, f"--{key}", paths])) == 1
        assert f"error: {key} takes one path, got 2: {paths!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value", [
        *(pytest.param(k, "x", id=k) for k, cast in sorted(KEYS.items())
          if cast not in (str, paths)),
        *(pytest.param(k, v, id=f"{k}_{v}") for k, cast in sorted(KEYS.items())
          if cast is finite_float for v in ("nan", "inf")),
        *(pytest.param(k, "-1", id=f"{k}_-1") for k, cast in sorted(KEYS.items())
          if cast in (non_negative_int, non_negative_ints)),
    ])
    def test_malformed_value_of_any_key_is_usage_error(self, workspace, tmp_path, capsys,
                                                       key, value):
        # Every key is cast before the command runs, even one `patch` does
        # not read, so a key added later cannot be cast after work starts.
        out = tmp_path / "out"
        assert main(patch_args(workspace, out, [f"--{key}", value])) == 1
        err = capsys.readouterr().err
        assert key in err and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["patching", "supported", "pretrain", "patching_no_val"])
    def test_task_csv_without_a_split_is_runtime_error(self, workspace, tmp_path, capsys,
                                                       role):
        header, *lines = (workspace / "task1.csv").read_text().splitlines()
        path = tmp_path / "nosplit.csv"
        if role == "patching_no_val":
            path.write_text("".join(f"{line.replace(',val,', ',train,')}\n"
                                    for line in [header, *lines]))
        else:
            path.write_text(header + "\n")  # no example rows at all
        out = tmp_path / "out"
        if role == "pretrain":
            args = ["pretrain", "--pretrain_tasks", str(path), "--out_dir", str(out),
                    "--iterations", "20", "--warmup", "5"]
        else:
            args = patch_args(workspace, out)
            args[args.index(f"--{role.split('_')[0]}_tasks") + 1] = str(path)
        assert main(args) == 2
        split = "val" if role == "patching_no_val" else "train"
        assert f"{path}: no '{split}' split" in capsys.readouterr().err
        assert not out.exists()

    def test_short_task_csv_row_is_runtime_error(self, workspace, tmp_path, capsys):
        text = (workspace / "task0.csv").read_text()
        task = tmp_path / "short.csv"
        task.write_text(text + "5,train\n")
        code = main(["pretrain", "--pretrain_tasks", str(task), "--out_dir",
                     str(tmp_path / "out"), "--iterations", "20", "--warmup", "5"])
        assert code == 2
        line = len(text.splitlines()) + 1
        assert f"short.csv:{line}: expected 9 fields, got 2" in capsys.readouterr().err

    def test_checkpoint_without_model_metadata_is_runtime_error(self, workspace, tmp_path,
                                                                capsys):
        zs = load_checkpoint(workspace / "zero_shot.ckpt")
        path = tmp_path / "no_scale.ckpt"
        save_checkpoint(zs.with_meta({k: v for k, v in zs.meta.items() if k != "logit_scale"}),
                        path)
        code = main(["finetune", "--zs_checkpoint", str(path), "--task",
                     str(workspace / "task1.csv"), "--out_dir", str(tmp_path / "out")])
        assert code == 2
        assert "metadata has no 'logit_scale'" in capsys.readouterr().err

    @pytest.mark.parametrize("meta, message", [
        ({"n_layers": "5"}, "checkpoint has no tensor 'enc.w2'"),
        ({"embed_dim": "0"}, "metadata 'embed_dim' is 0, but tensor 'enc.w1' outputs 8"),
        ({"embed_dim": "7"}, "metadata 'embed_dim' is 7, but tensor 'enc.w1' outputs 8"),
    ], ids=["n_layers", "embed_dim_0", "embed_dim_7"])
    def test_model_metadata_disagreeing_with_weights_is_runtime_error(
            self, workspace, tmp_path, capsys, meta, message):
        zs = load_checkpoint(workspace / "zero_shot.ckpt")
        path = tmp_path / "bad_meta.ckpt"
        save_checkpoint(zs.with_meta({**zs.meta, **meta}), path)
        code = main(["finetune", "--zs_checkpoint", str(path), "--task",
                     str(workspace / "task1.csv"), "--out_dir", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_zero_width_checkpoint_is_runtime_error(self, tmp_path, capsys):
        # It once loaded, and every test row of the 3-class task scored as
        # the first class: test_accuracy 0.333333.
        path = tmp_path / "z.ckpt"
        save_checkpoint(Checkpoint({"enc.w0": np.zeros((0, 4)), "enc.b0": np.zeros(0)},
                                   {"logit_scale": "20.0", "embed_dim": "0", "n_layers": "1"}),
                        path)
        task = tmp_path / "t.csv"
        generate_tasks(0, 3, 4, 10, 0.3, [(0, 1, 2)])[0].to_csv(task)
        assert main(["metrics", "--ckpt_a", str(path), "--ckpt_b", str(path),
                     "--task", str(task)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{path}: tensor 'enc.w0' has shape (0, 4); expected a matrix with no "
                f"zero dimension") in captured.err

    @pytest.mark.parametrize("edit, message", [
        (lambda i, row: [str(int(row[0]) + 1), *row[1:]],
         "task1.csv:2: column 'id': not a valid id (row position 0): '1'"),
        (lambda i, row: ["-1", *row[1:]] if i == 0 else row,
         "task1.csv:2: column 'id': not a valid id (row position 0): '-1'"),
        (lambda i, row: ["0", *row[1:]] if i == 1 else row,
         "task1.csv:3: column 'id': not a valid id (row position 1): '0'"),
        # Row 0 is the first train row and row 18 the first test row.
        (lambda i, row: [{0: "18", 18: "0"}.get(i, row[0]), *row[1:]],
         "task1.csv:2: column 'id': not a valid id (row position 0): '18'"),
        (lambda i, row: [*row[:2], "x", *row[3:]] if i == 0 else row,
         "task1.csv:2: column 'label': not a valid int: 'x'"),
        (lambda i, row: [*row[:4], "nan", *row[5:]] if i == 2 else row,
         "task1.csv:4: column 'f1': not a valid finite float: 'nan'"),
        (lambda i, row: [str(2**66), *row[1:]] if i == 1 else row,
         f"task1.csv:3: column 'id': not a valid id (row position 1): '{2**66}'"),
        (lambda i, row: [*row[:2], str(2**66), *row[3:]] if i == 0 else row,
         f"task1.csv:2: column 'label': not a valid class id: '{2**66}'"),
        (lambda i, row: [*row[:2], "-5", *row[3:]] if i == 0 else row,
         "task1.csv:2: column 'label': not a valid class id: '-5'"),
    ], ids=["shifted_ids", "negative_id", "repeated_id", "swapped_ids", "non_numeric_label",
            "nan_feature",
            "int64_overflow_id", "int64_overflow_label", "negative_label"])
    def test_malformed_task_csv_is_runtime_error(self, workspace, tmp_path, capsys, edit,
                                                 message):
        header, *lines = (workspace / "task1.csv").read_text().splitlines()
        rows = [",".join(edit(i, line.split(","))) for i, line in enumerate(lines)]
        path = tmp_path / "task1.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        args = patch_args(workspace, tmp_path / "out")
        args[args.index("--patching_tasks") + 1] = str(path)
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("iterations", ["20", "0"])
    def test_task_csv_without_features_is_runtime_error(self, tmp_path, capsys, iterations):
        path = tmp_path / "bare.csv"
        path.write_text("id,split,label\n0,train,0\n1,val,1\n2,test,0\n")
        out = tmp_path / "out"
        assert main(["pretrain", "--pretrain_tasks", str(path), "--out_dir", str(out),
                     "--iterations", iterations, "--warmup", "0"]) == 2
        assert f"{path}: no feature columns" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["patch", "finetune", "pretrain", "metrics"])
    def test_task_of_another_input_width_is_runtime_error(self, workspace, tmp_path,
                                                          capsys, command):
        # The workspace tasks have 6 features; drop the last feature column.
        lines = (workspace / "task1.csv").read_text().splitlines()
        path = tmp_path / "narrow.csv"
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        out = tmp_path / "out"
        if command == "patch":
            args = patch_args(workspace, out)
            args[args.index("--patching_tasks") + 1] = str(path)
        elif command == "finetune":
            args = ["finetune", "--zs_checkpoint", str(workspace / "zero_shot.ckpt"),
                    "--task", str(path), "--out_dir", str(out)]
        elif command == "metrics":
            zs = str(workspace / "zero_shot.ckpt")
            args = ["metrics", "--ckpt_a", zs, "--ckpt_b", zs, "--task", str(path),
                    "--out_dir", str(out)]
        else:
            args = ["pretrain", "--pretrain_tasks", f"{workspace / 'task0.csv'},{path}",
                    "--out_dir", str(out), "--iterations", "20", "--warmup", "5"]
        assert main(args) == 2
        assert f"{path}: 5 features per example, but the model takes 6 inputs" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_missing_zs_checkpoint_is_usage_error(self, workspace, tmp_path, capsys):
        args = patch_args(workspace, tmp_path)
        i = args.index("--zs_checkpoint")
        del args[i:i + 2]
        assert main(args) == 1
        assert "missing required key: zs_checkpoint" in capsys.readouterr().err


class TestMetricsCommand:
    def test_frontier_fixture_values(self, capsys):
        assert main(["metrics", "--frontier", MNIST_FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "distance_to_endpoints 0.150000" in out
        assert "distance_to_optimal 0.200000" in out

    def test_checkpoint_similarity(self, workspace, capsys):
        assert main(["metrics", "--ckpt_a", str(workspace / "zero_shot.ckpt"),
                     "--ckpt_b", str(workspace / "zero_shot.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "cosine_similarity 1.000000" in out
        assert "l1_mean_distance 0.000000" in out

    def test_task_cka_of_a_checkpoint_with_itself(self, workspace, tmp_path, capsys):
        zs = str(workspace / "zero_shot.ckpt")
        assert main(["metrics", "--ckpt_a", zs, "--ckpt_b", zs,
                     "--task", str(workspace / "task1.csv"), "--out_dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cka 1.000000" in out
        accuracy = json.loads((tmp_path / "metrics.json").read_text())["test_accuracy"]
        assert accuracy["ckpt_a"] == accuracy["ckpt_b"]
        assert f"test_accuracy_a {accuracy['ckpt_a']:.6f}" in out
        assert f"test_accuracy_b {accuracy['ckpt_a']:.6f}" in out

    def test_broad_transfer_chain(self, workspace, tmp_path, capsys):
        # Split a task's classes into halves A and B, patch on A alone, then
        # score the zero-shot and patched models on B's test split.
        splits, patched = tmp_path / "splits", tmp_path / "patch"
        assert main(["gen-tasks", "--split_source", str(workspace / "task0.csv"),
                     "--seed", "7", "--out_dir", str(splits)]) == 0
        args = patch_args(workspace, patched)
        args[args.index("--patching_tasks") + 1] = str(splits / "task0_A.csv")
        args[args.index("--supported_tasks") + 1] = str(workspace / "task1.csv")
        assert main(args) == 0
        zs_path, patched_path = workspace / "zero_shot.ckpt", patched / "patched.ckpt"
        assert main(["metrics", "--ckpt_a", str(zs_path), "--ckpt_b", str(patched_path),
                     "--task", str(splits / "task0_B.csv"),
                     "--out_dir", str(tmp_path / "m")]) == 0
        accuracy = json.loads((tmp_path / "m" / "metrics.json").read_text())["test_accuracy"]
        b = TaskDataset.from_csv(splits / "task0_B.csv")
        # Bit for bit the accuracies `evaluate` gives each loaded checkpoint.
        assert accuracy == {key: evaluate(ToyModel(load_checkpoint(path)), b, "test")
                            for key, path in (("ckpt_a", zs_path), ("ckpt_b", patched_path))}
        printed = capsys.readouterr().out
        assert f"test_accuracy_a {accuracy['ckpt_a']:.6f}" in printed
        assert f"test_accuracy_b {accuracy['ckpt_b']:.6f}" in printed
        # And those of the in-library protocol: patch_single on A, evaluate on B.
        zs = ToyModel(load_checkpoint(zs_path))
        result = patch_single(PatchSpec(
            model=zs, patching_tasks=[TaskDataset.from_csv(splits / "task0_A.csv", "task0_A")],
            supported_tasks=[TaskDataset.from_csv(workspace / "task1.csv", "task1")],
            alpha_grid=parse_grid("0:1:0.05"),
            train=TrainConfig(iterations=60, batch_size=32, lr=0.01, warmup=5, hidden=(16,),
                              embed_dim=8)))
        assert result.patched.equal(load_checkpoint(patched_path))
        assert [evaluate(zs, b, "test"), evaluate(zs.with_weights(result.patched), b, "test")
                ] == [accuracy["ckpt_a"], accuracy["ckpt_b"]]
        # B took no part in the patch: neither selection nor the run's inputs name it.
        record = json.loads((patched / "patch_result.json").read_text())
        assert "task0_B" not in record["val_accuracies"]
        assert not any("task0_B" in paths for paths in record["inputs"].values())

    def test_task_cka_is_library_cka_on_the_test_split(self, workspace, tmp_path, capsys):
        task = workspace / "task1.csv"
        assert main(["finetune", "--zs_checkpoint", str(workspace / "zero_shot.ckpt"),
                     "--task", str(task), "--out_dir", str(tmp_path),
                     "--iterations", "60", "--warmup", "5"]) == 0
        tuned = tmp_path / "finetuned_task1.ckpt"
        assert main(["metrics", "--ckpt_a", str(workspace / "zero_shot.ckpt"),
                     "--ckpt_b", str(tuned), "--task", str(task),
                     "--out_dir", str(tmp_path / "m")]) == 0
        x, _ = TaskDataset.from_csv(task).split_arrays("test")
        zs = ToyModel(load_checkpoint(workspace / "zero_shot.ckpt"))
        expected = cka(zs.encode(x), ToyModel(load_checkpoint(tuned)).encode(x))
        assert expected < 1.0
        assert json.loads((tmp_path / "m" / "metrics.json").read_text())["cka"] == expected
        assert f"cka {expected:.6f}" in capsys.readouterr().out

    @pytest.mark.parametrize("given, missing", [
        (["--ckpt_a"], "ckpt_b"), (["--ckpt_b"], "ckpt_a"), ([], "ckpt_a"),
    ], ids=["only_ckpt_a", "only_ckpt_b", "neither"])
    def test_task_without_both_checkpoints_is_usage_error(self, workspace, capsys,
                                                          given, missing):
        args = ["metrics", "--task", str(workspace / "task1.csv")]
        for flag in given:
            args += [flag, str(workspace / "zero_shot.ckpt")]
        assert main(args) == 1
        assert f"missing required key: {missing}" in capsys.readouterr().err

    def test_task_cka_of_checkpoint_without_model_metadata_is_runtime_error(
            self, workspace, tmp_path, capsys):
        zs = load_checkpoint(workspace / "zero_shot.ckpt")
        path = tmp_path / "no_scale.ckpt"
        save_checkpoint(zs.with_meta({k: v for k, v in zs.meta.items() if k != "logit_scale"}),
                        path)
        out = tmp_path / "out"
        assert main(["metrics", "--ckpt_a", str(workspace / "zero_shot.ckpt"),
                     "--ckpt_b", str(path), "--task", str(workspace / "task1.csv"),
                     "--out_dir", str(out)]) == 2
        assert "metadata has no 'logit_scale'" in capsys.readouterr().err
        assert not out.exists()

    def test_task_model_setting_unlike_the_checkpoint_is_usage_error(self, workspace,
                                                                     tmp_path, capsys):
        # With a task the checkpoints are models, held to the settings as
        # finetune and patch hold them; without one they are plain weights.
        zs = workspace / "zero_shot.ckpt"
        pair = ["metrics", "--ckpt_a", str(zs), "--ckpt_b", str(zs),
                "--hidden", "99", "--logit_scale", "3"]
        out = tmp_path / "out"
        assert main([*pair, "--task", str(workspace / "task1.csv"), "--out_dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: hidden is (99,), but {zs} has hidden (16,)\n")
        assert not out.exists()
        assert main(pair) == 0
        assert "cosine_similarity 1.000000" in capsys.readouterr().out

    def test_writes_metrics_json(self, tmp_path):
        assert main(["metrics", "--frontier", MNIST_FIXTURE,
                     "--out_dir", str(tmp_path)]) == 0
        obj = json.loads((tmp_path / "metrics.json").read_text())
        entry = obj[MNIST_FIXTURE]
        assert entry["distance_to_endpoints"] == pytest.approx(0.15, abs=1e-9)

    def test_no_inputs_is_usage_error(self, capsys):
        assert main(["metrics"]) == 1

    @pytest.mark.parametrize("case, code", [("frontier_then_missing_ckpt_b", 1),
                                            ("missing_task", 2)])
    def test_failing_run_prints_nothing(self, workspace, tmp_path, capsys, case, code):
        zs = str(workspace / "zero_shot.ckpt")
        args = {
            "frontier_then_missing_ckpt_b": ["--frontier", MNIST_FIXTURE, "--ckpt_a", zs,
                                             "--task", str(workspace / "task1.csv")],
            "missing_task": ["--ckpt_a", zs, "--ckpt_b", zs,
                             "--task", str(tmp_path / "missing.csv")],
        }[case]
        out = tmp_path / "out"
        assert main(["metrics", *args, "--out_dir", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestReportCommand:
    def test_scatter_and_average(self, workspace, tmp_path):
        for name in ("a", "b"):
            main(patch_args(workspace, tmp_path / name))
        assert main(["report", "--results_dir", str(tmp_path),
                     "--out_dir", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "scatter.csv").read_text().strip().splitlines()
        assert lines[0] == "series,alpha,supported_acc,patching_acc"
        series = {line.split(",")[0] for line in lines[1:]}
        assert "average" in series
        assert len(series) == 3  # two runs + average
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["experiments"]) == 2

    def test_scatter_quotes_a_label_with_a_comma(self, workspace, tmp_path):
        assert main(patch_args(workspace, tmp_path / "lab,v2")) == 0
        assert main(["report", "--results_dir", str(tmp_path),
                     "--out_dir", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "scatter.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header == ["series", "alpha", "supported_acc", "patching_acc"]
        assert all(len(row) == 4 for row in rows)
        assert {row[0] for row in rows} == {"lab,v2/patch_result", "average"}

    def test_sequential_run_counts_each_order_seed_once(self, workspace, tmp_path):
        args = patch_args(workspace, tmp_path / "seq",
                          ["--strategy", "sequential", "--order_seeds", "0,1,2"])
        args[args.index("--patching_tasks") + 1] = ",".join(
            [str(workspace / "task1.csv"), str(workspace / "task2.csv")])
        assert main(args) == 0
        assert main(["report", "--results_dir", str(tmp_path),
                     "--out_dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["experiments"] == [f"seq/patch_result_seed{i}" for i in range(3)]

    def test_empty_dir_is_runtime_error(self, tmp_path, capsys):
        assert main(["report", "--results_dir", str(tmp_path)]) == 2
        assert f"no patch results found in {tmp_path}" in capsys.readouterr().err


FRONTIER_HEADER = "alpha,supported_acc,patching_acc\n0.0,0.9,0.1\n"


def result_json(points):
    """A patch_result.json body whose frontier holds `points` and then the
    alpha=1 endpoint."""
    points = [*points, (1.0, 0.5, 0.8)]
    return json.dumps({"frontier": {"unit": "fraction", "points": [
        {"alpha": a, "supported_acc": s, "patching_acc": p} for a, s, p in points]}})


@pytest.mark.parametrize("key, name, text, message", [
    ("frontier", "f.csv", FRONTIER_HEADER + "0.5,0.7\n1.0,0.5,0.8\n",
     ":3: expected 3 numbers, got '0.5,0.7'"),
    ("frontier", "f.csv", FRONTIER_HEADER + "0.5,x,0.3\n1.0,0.5,0.8\n",
     ":3: expected 3 numbers, got '0.5,x,0.3'"),
    ("results_dir", "patch_result.json", "{bad", ": not valid JSON"),
    ("results_dir", "patch_result.json", '{"strategy": "single"}',
     ": no frontier points (KeyError: 'frontier')"),
    ("results_dir", "patch_result.json", json.dumps({"frontier": {"points": [
        {"alpha": "x", "supported_acc": 0.9, "patching_acc": 0.1},
        {"alpha": 1.0, "supported_acc": 0.5, "patching_acc": 0.8}]}}),
     ": alpha must be a real number, got 'x'"),
    ("results_dir", "patch_result.json", result_json([(0.0, float("nan"), 0.1)]),
     ": accuracy nan outside [0, 1.0]"),
    ("results_dir", "patch_result.json", result_json([(0.0, 0.9, 1.5)]),
     ": accuracy 1.5 outside [0, 1.0]"),
    # Too large for a float64: it once ended in an OverflowError traceback.
    ("results_dir", "patch_result.json", result_json([(0.0, 10**400, 0.1)]),
     f": accuracy {10**400} outside [0, 1.0]"),
    ("results_dir", "patch_result.json", result_json([(0.0, 0.9, 0.1), (0.0, 0.8, 0.2)]),
     ": duplicate alpha in frontier"),
    ("results_dir", "patch_result.json", json.dumps({"frontier": {"points": [
        {"alpha": 0.0, "supported_acc": 0.9, "patching_acc": 0.1}]}}),
     ": frontier must contain alpha=0 and alpha=1"),
], ids=["frontier_short_row", "frontier_non_numeric", "result_not_json",
        "result_without_frontier",
        "result_non_numeric_alpha", "result_nan_accuracy", "result_out_of_range",
        "result_huge_int_accuracy",
        "result_duplicate_alpha", "result_without_endpoint"])
@pytest.mark.filterwarnings("error")  # a message names the file; no library warning
def test_malformed_metrics_or_report_input_names_the_file(tmp_path, capsys, key, name,
                                                          text, message):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out"
    if key == "results_dir":
        args = ["report", "--results_dir", str(tmp_path), "--out_dir", str(out)]
    else:
        args = ["metrics", f"--{key}", str(path), "--out_dir", str(out)]
    assert main(args) == 2
    assert f"{path}{message}" in capsys.readouterr().err
    assert not out.exists()


def gen_tasks_under_cap(tmp_path, sizes):
    """gen-tasks at `sizes` in a child that caps its own address space at
    1 GiB before numpy is imported; the finished process."""
    child = ("import resource, sys\n"
             "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n"
             "from paintkit.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = ["gen-tasks", "--out_dir", str(tmp_path / "tasks"), "--seed", "0",
            "--noise_scale", "0.5", "--tasks", "0-1|2-3", *sizes]
    return subprocess.run([sys.executable, "-c", child, *args],
                          capture_output=True, text=True, env=env, timeout=120)


# Sizes within MAX_TASK_VALUES that still cannot fit under the cap. Never run
# them without it.
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs an enforced RLIMIT_AS address-space cap")
@pytest.mark.parametrize("sizes", [
    ["--num_classes", "8388608", "--dim", "16", "--samples_per_class", "20"],
    ["--num_classes", "4", "--dim", "3355443", "--samples_per_class", "10"],
    ["--num_classes", "4", "--dim", "16", "--samples_per_class", "2097152"],
], ids=["num_classes", "dim", "samples_per_class"])
def test_out_of_memory_is_runtime_error(tmp_path, sizes):
    proc = gen_tasks_under_cap(tmp_path, sizes)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.fullmatch(r"error: out of memory: Unable to allocate .+\n", proc.stderr), \
        proc.stderr
    assert not (tmp_path / "tasks").exists()


def test_bare_out_of_memory_is_runtime_error(tmp_path, monkeypatch, capsys):
    # A MemoryError raised without a message, as some allocations raise it.
    def no_memory(*args):
        raise MemoryError()
    monkeypatch.setattr("paintkit.cli.generate_tasks", no_memory)
    out = tmp_path / "tasks"
    assert main(["gen-tasks", "--out_dir", str(out), "--seed", "0", "--num_classes", "4",
                 "--dim", "3", "--samples_per_class", "20", "--noise_scale", "0.1",
                 "--tasks", "0-1|2-3"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory\n")
    assert not out.exists()


def too_many(count, what):
    return f"error: gen-tasks would draw {count} values ({what}), more than {2**27}\n"


# Sizes over MAX_TASK_VALUES, and class ranges that dim 0 leaves unbounded;
# the cap keeps a failing check from allocating them.
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs an enforced RLIMIT_AS address-space cap")
@pytest.mark.parametrize("sizes, error", [
    (["--num_classes", "100000000", "--dim", "16", "--samples_per_class", "20"],
     too_many(1_600_000_000, "num_classes x dim")),
    (["--num_classes", "100000000000", "--dim", "16", "--samples_per_class", "20"],
     too_many(1_600_000_000_000, "num_classes x dim")),
    (["--num_classes", "4", "--dim", "100000000", "--samples_per_class", "20"],
     too_many(400_000_000, "num_classes x dim")),
    (["--num_classes", "4", "--dim", "16", "--samples_per_class", "100000000"],
     too_many(6_400_000_000, "task classes x samples_per_class x dim")),
    (["--num_classes", "100000000000", "--dim", "0", "--samples_per_class", "20",
      "--tasks", "0-49999999999|50000000000-99999999999"],
     "error: dim must be >= 1, got 0\n"),
    (["--num_classes", "100000000000000000000", "--dim", "16", "--samples_per_class", "20",
      "--tasks", "0-1|2-99999999999999999999"],
     too_many(1_600_000_000_000_000_000_000, "num_classes x dim")),
], ids=["num_classes", "num_classes_1e11", "dim", "samples_per_class", "dim_0",
        "range_over_maxsize"])
def test_oversized_gen_tasks_is_usage_error(tmp_path, sizes, error):
    proc = gen_tasks_under_cap(tmp_path, sizes)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error)
    assert not (tmp_path / "tasks").exists()


@pytest.mark.parametrize("command", ["metrics", "finetune", "pretrain", "patch", "report"])
def test_input_file_that_is_not_utf8_names_it(workspace, tmp_path, capsys, command):
    bad = tmp_path / "results" / ("patch_result.json" if command == "report" else "t2.csv")
    bad.parent.mkdir()
    bad.write_bytes(b"\xff\xfe")
    out = tmp_path / "out"
    args = {
        "metrics": ["metrics", "--frontier", str(bad)],
        "finetune": ["finetune", "--zs_checkpoint", str(workspace / "zero_shot.ckpt"),
                     "--task", str(bad)],
        "pretrain": ["pretrain", "--pretrain_tasks", str(bad)],
        "patch": patch_args(workspace, out),
        "report": ["report", "--results_dir", str(bad.parent)],
    }[command]
    if command == "patch":
        args[args.index("--patching_tasks") + 1] = str(bad)
    assert main([*args, "--out_dir", str(out)]) == 2
    # `report` reads a result as JSON and says so.
    prefix = f"{bad}: not valid JSON: " if command == "report" else f"{bad}: "
    assert f"{prefix}'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["9" * 200_000, "0.\x005"], ids=["long_field", "nul_byte"])
@pytest.mark.parametrize("command", ["pretrain", "metrics_task", "metrics_frontier"])
def test_csv_the_csv_module_rejects_is_runtime_error(workspace, tmp_path, capsys, command,
                                                      cell):
    # A field over the csv module's 131,072-character limit, or (on Python
    # 3.10) a NUL byte, is a csv.Error; on 3.11+ the NUL cell is a bad float.
    bad = tmp_path / "bad.csv"
    if command == "metrics_frontier":
        bad.write_text(f"alpha,supported_acc,patching_acc\n0.0,{cell},0.1\n1.0,0.5,0.8\n")
    else:
        header, first, *rest = (workspace / "task1.csv").read_text().splitlines()
        cells = first.split(",")
        cells[3] = cell  # the first feature
        bad.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    zs = str(workspace / "zero_shot.ckpt")
    args = {
        "pretrain": ["pretrain", "--pretrain_tasks", str(bad)],
        "metrics_task": ["metrics", "--ckpt_a", zs, "--ckpt_b", zs, "--task", str(bad)],
        "metrics_frontier": ["metrics", "--frontier", str(bad)],
    }[command]
    out = tmp_path / "out"
    assert main([*args, "--out_dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}:")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (b"PAIN", "truncated payload"),
    (b"NOTACKPT" + bytes(16), "bad magic"),
    (None, "checkpoint metadata has no 'logit_scale'"),
    ("-20.0", "checkpoint metadata 'logit_scale' must be > 0, got -20.0"),
    ("nan", "checkpoint metadata 'logit_scale' must be finite, got nan"),
], ids=["truncated", "bad_magic", "no_model_metadata", "negative_logit_scale",
        "nan_logit_scale"])
@pytest.mark.parametrize("flag", ["ckpt_b", "zs_checkpoint"])
def test_checkpoint_error_names_the_file(workspace, tmp_path, capsys, flag, content, message):
    # A logit scale of -20 once loaded, and scored every test row wrong.
    path = tmp_path / "bad.ckpt"
    if not isinstance(content, bytes):
        # Only a model needs the metadata: metrics reads ckpt_b as one with a task.
        zs = load_checkpoint(workspace / "zero_shot.ckpt")
        meta = {k: v for k, v in zs.meta.items() if k != "logit_scale"}
        save_checkpoint(zs.with_meta(meta if content is None
                                     else {**meta, "logit_scale": content}), path)
    else:
        path.write_bytes(content)
    out = tmp_path / "out"
    if flag == "ckpt_b":
        args = ["metrics", "--ckpt_a", str(workspace / "zero_shot.ckpt"), "--ckpt_b",
                str(path), "--task", str(workspace / "task1.csv"), "--out_dir", str(out)]
    else:
        args = patch_args(workspace, out)
        args[args.index("--zs_checkpoint") + 1] = str(path)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: {message}\n")
    assert not out.exists()


def test_unreadable_checkpoint_is_named_once(workspace, tmp_path, capsys):
    # An OSError names its file already.
    path = tmp_path / "missing.ckpt"
    assert main(["metrics", "--ckpt_a", str(workspace / "zero_shot.ckpt"),
                 "--ckpt_b", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_import_loads_neither_openssl_nor_numpy_random():
    # OpenSSL (_hashlib) costs every paintkit process megabytes, and a
    # numpy.random import at module level would move its cost out of the
    # first run that draws a random number.
    child = ("import json, sys\n"
             "import numpy\n"
             "before = set(sys.modules)\n"
             "import paintkit, paintkit.cli\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    added = json.loads(proc.stdout)
    assert "paintkit.cli" in added
    assert [m for m in added if m == "_hashlib" or m.split(".")[:2] == ["numpy", "random"]] == []
