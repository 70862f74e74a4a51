import json
import os

import numpy as np
import pytest

from paintkit import Checkpoint, TaskDataset, lerp, load_checkpoint, save_checkpoint
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

    def test_malformed_line_has_lineno(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("seed = 1\nnot a pair\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(str(cfg_path))

    def test_overrides(self):
        assert parse_overrides(["--seed", "4", "--alpha-grid", "0:1:0.5"]) == {
            "seed": "4", "alpha_grid": "0:1:0.5"}
        with pytest.raises(ConfigError):
            parse_overrides(["seed", "4"])
        with pytest.raises(ConfigError):
            parse_overrides(["--seed"])

    def test_parse_grid(self):
        assert parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert len(parse_grid("0:1:0.05")) == 21
        assert parse_grid("0,0.5,1") == [0.0, 0.5, 1.0]

    def test_parse_grid_rejects_bad_step_and_values(self):
        for text in ("0:1:0", "0:1:-0.1", "a,b", "0:1:x", "0:1", "0,nan,1", ""):
            with pytest.raises(ConfigError):
                parse_grid(text)

    def test_parse_grid_bounds_range_before_expanding(self):
        assert len(parse_grid("0:1:0.0001")) == 10001
        for text in ("0:1:1e-9", "0:1:5e-324", "-0.5:1:0.5", "0:1.5:0.5"):
            with pytest.raises(ConfigError):
                parse_grid(text)

    def test_parse_partition(self):
        assert parse_partition("0-2|3,4") == [[0, 1, 2], [3, 4]]
        assert parse_partition("0-9|10-14") == [list(range(10)), [10, 11, 12, 13, 14]]

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
                                     "ema_decay", "snapshot_every", "split_seed"])
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

    @pytest.mark.parametrize("argv", [["bogus"], [], ["patch", "--config"]],
                             ids=["unknown_command", "no_command", "config_without_path"])
    def test_bad_command_line_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_usage(self, capsys, flag):
        assert main(["patch", flag]) == 0
        assert capsys.readouterr().out.startswith("usage: paintkit ")

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

    def test_two_tasks_with_one_name_is_runtime_error(self, workspace, tmp_path, capsys):
        other = tmp_path / "other"
        other.mkdir()
        (other / "task0.csv").write_text((workspace / "task2.csv").read_text())
        args = patch_args(workspace, tmp_path / "out")
        args[args.index("--supported_tasks") + 1] = ",".join(
            [str(workspace / "task0.csv"), str(other / "task0.csv")])
        assert main(args) == 2
        assert "two tasks are named 'task0'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would fail the run
    def test_diverging_run_reports_one_error_line(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(patch_args(workspace, out, ["--weight_decay", "1e300"])) == 2
        assert capsys.readouterr().err == "error: non-finite loss at step 3: nan\n"

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
    ])
    def test_bad_selection_is_usage_error_before_training(self, workspace, tmp_path,
                                                          capsys, extra):
        assert main(command_args(workspace, tmp_path, extra)) == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
    ], ids=["patch_seed", "pretrain_seed", "finetune_seed", "split_seed", "order_seeds",
            "patch_hidden", "pretrain_hidden", "embed_dim", "iterations", "warmup",
            "logit_scale_0", "logit_scale_negative"])
    def test_out_of_range_setting_is_usage_error_naming_it(self, workspace, tmp_path,
                                                           capsys, extra, key):
        assert main(command_args(workspace, tmp_path, extra)) == 1
        assert key in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value", [
        *(pytest.param(k, "x", id=k) for k, cast in sorted(KEYS.items()) if cast is not str),
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

    @pytest.mark.parametrize("command", ["patch", "finetune", "pretrain"])
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

    def test_rep_cka(self, tmp_path, rng, capsys):
        a = rng.standard_normal((12, 4))
        np.savetxt(tmp_path / "a.csv", a, delimiter=",")
        np.savetxt(tmp_path / "b.csv", a, delimiter=",")
        assert main(["metrics", "--rep_a", str(tmp_path / "a.csv"),
                     "--rep_b", str(tmp_path / "b.csv")]) == 0
        assert "cka 1.000000" in capsys.readouterr().out

    def test_writes_metrics_json(self, tmp_path):
        assert main(["metrics", "--frontier", MNIST_FIXTURE,
                     "--out_dir", str(tmp_path)]) == 0
        obj = json.loads((tmp_path / "metrics.json").read_text())
        entry = obj[MNIST_FIXTURE]
        assert entry["distance_to_endpoints"] == pytest.approx(0.15, abs=1e-9)

    def test_no_inputs_is_usage_error(self, capsys):
        assert main(["metrics"]) == 1


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

    def test_baseline_csv_passthrough(self, workspace, tmp_path):
        main(patch_args(workspace, tmp_path))
        (tmp_path / "baseline_early_stopping.csv").write_text(
            "alpha,supported_acc,patching_acc\n0.0,0.9,0.1\n1.0,0.5,0.8\n")
        assert main(["report", "--results_dir", str(tmp_path)]) == 0
        text = (tmp_path / "scatter.csv").read_text()
        assert "baseline_early_stopping" in text

    def test_empty_dir_is_runtime_error(self, tmp_path, capsys):
        assert main(["report", "--results_dir", str(tmp_path)]) == 2


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
    ("rep_a", "a.csv", "1,2,3\n4,5\n", ": the number of columns changed from 3 to 2"),
    ("rep_b", "b.csv", "1,2,3\n4,x,6\n", ": could not convert string 'x' to float64"),
    ("rep_a", "a.csv", "", ": no rows"),
    ("results_dir", "patch_result.json", "{bad", ": not valid JSON"),
    ("results_dir", "patch_result.json", '{"strategy": "single"}',
     ": no frontier points (KeyError: 'frontier')"),
    ("results_dir", "patch_result.json", json.dumps({"frontier": {"points": [
        {"alpha": "x", "supported_acc": 0.9, "patching_acc": 0.1},
        {"alpha": 1.0, "supported_acc": 0.5, "patching_acc": 0.8}]}}),
     ": frontier point is not three numbers: ('x', 0.9, 0.1)"),
    ("results_dir", "patch_result.json", result_json([(0.0, float("nan"), 0.1)]),
     ": accuracy nan outside [0, 1.0]"),
    ("results_dir", "patch_result.json", result_json([(0.0, 0.9, 1.5)]),
     ": accuracy 1.5 outside [0, 1.0]"),
    ("results_dir", "patch_result.json", result_json([(0.0, 0.9, 0.1), (0.0, 0.8, 0.2)]),
     ": duplicate alpha in frontier"),
    ("results_dir", "patch_result.json", json.dumps({"frontier": {"points": [
        {"alpha": 0.0, "supported_acc": 0.9, "patching_acc": 0.1}]}}),
     ": frontier must contain alpha=0 and alpha=1"),
    ("results_dir", "baseline_x.csv", FRONTIER_HEADER,
     ": frontier must contain alpha=0 and alpha=1"),
], ids=["frontier_short_row", "frontier_non_numeric", "rep_a_ragged", "rep_b_non_numeric",
        "rep_a_empty", "result_not_json", "result_without_frontier",
        "result_non_numeric_alpha", "result_nan_accuracy", "result_out_of_range",
        "result_duplicate_alpha", "result_without_endpoint", "baseline_without_endpoint"])
@pytest.mark.filterwarnings("error")  # a message names the file; no library warning
def test_malformed_metrics_or_report_input_names_the_file(tmp_path, capsys, key, name,
                                                          text, message):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out"
    if key == "results_dir":
        args = ["report", "--results_dir", str(tmp_path), "--out_dir", str(out)]
    else:
        good = tmp_path / "good.csv"
        good.write_text("1,2,3\n4,5,6\n")
        # The malformed file overrides one of two good representation files.
        args = ["metrics", "--rep_a", str(good), "--rep_b", str(good), f"--{key}", str(path),
                "--out_dir", str(out)]
    assert main(args) == 2
    assert f"{path}{message}" in capsys.readouterr().err
    assert not out.exists()
