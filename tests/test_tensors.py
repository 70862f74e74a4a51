import math
import os
import struct

import numpy as np
import pytest

from paintkit import (
    Checkpoint,
    CheckpointError,
    CompatibilityError,
    FormatError,
    Frontier,
    FrontierPoint,
    ToyModel,
    TrainConfig,
    average,
    cosine_similarity,
    finetune,
    generate_tasks,
    l1_mean_distance,
    lerp,
    load_checkpoint,
    multi_combine,
    save_checkpoint,
    validate_compatible,
)
from paintkit.tensors import MAGIC, check_alphas, combine_rows

from conftest import random_checkpoint


def ck(**tensors):
    return Checkpoint(tensors)


def container(table, meta=()):
    """PAINTCKP bytes from raw (name, dtype code, shape, payload) tensor
    entries and raw (key, value) meta pairs, with no validation."""
    data = MAGIC + struct.pack("<II", 1, len(table))
    for name, code, shape, _ in table:
        data += struct.pack("<H", len(name)) + name
        data += struct.pack(f"<BB{len(shape)}Q", code, len(shape), *shape)
    data += struct.pack("<I", len(meta))
    for key, value in meta:
        data += struct.pack("<I", len(key)) + key + struct.pack("<I", len(value)) + value
    return data + b"".join(payload for *_, payload in table)


F64 = np.array([1.0, 2.0]).tobytes()


class TestCheckpoint:
    def test_rejects_nan(self):
        with pytest.raises(CheckpointError):
            Checkpoint({"w": np.array([1.0, np.nan])})

    def test_rejects_mixed_dtype(self):
        with pytest.raises(CheckpointError):
            Checkpoint({"a": np.zeros(2, np.float32), "b": np.zeros(2, np.float64)})

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float16, np.complex128])
    def test_rejects_a_tensor_that_is_not_float32_or_float64(self, dtype):
        # It was cast to float64: an int silently, and a complex tensor lost
        # its imaginary part with only a ComplexWarning.
        with pytest.raises(CheckpointError) as info:
            Checkpoint({"a": np.zeros(2), "b": np.ones(2, dtype)})
        assert type(info.value) is CheckpointError
        assert str(info.value) == (f"tensor 'b' is {np.dtype(dtype)}, "
                                   "not float32 or float64")

    @pytest.mark.parametrize("meta, shown", [
        ({1: "a", "1": "b"}, "1: 'a'"),
        ({"step": 100}, "'step': 100"),
        ({"tag": None}, "'tag': None"),
        ({"tag": "zs", b"id": "v"}, "b'id': 'v'"),
    ], ids=["int_key", "int_value", "none_value", "bytes_key"])
    def test_metadata_maps_str_to_str(self, meta, shown):
        # Each was cast with str(), so {1: "a", "1": "b"} kept only '1': 'b'.
        ckpt = Checkpoint({"w": np.zeros(1)}, {"tag": "zs"})
        for make in (lambda: Checkpoint({"w": np.zeros(1)}, meta),
                     lambda: ckpt.with_meta(meta)):
            with pytest.raises(CheckpointError) as info:
                make()
            assert type(info.value) is CheckpointError
            assert str(info.value) == f"metadata must map str to str, got {shown}"

    def test_with_meta_shares_the_weights(self):
        ckpt = Checkpoint({"w": np.arange(3.0)}, {"tag": "zs"})
        other = ckpt.with_meta({"tag": "ft"})
        assert other.equal(ckpt) and other["w"].base is ckpt["w"].base
        assert (other.meta, ckpt.meta) == ({"tag": "ft"}, {"tag": "zs"})

    def test_insertion_order_preserved(self):
        c = ck(z=np.zeros(1), a=np.zeros(1), m=np.zeros(1))
        assert c.names() == ["z", "a", "m"]

    def test_immutable(self):
        c = ck(w=np.zeros(3))
        with pytest.raises(ValueError):
            c["w"][0] = 1.0

    def test_flat_order(self):
        c = ck(b=np.array([3.0, 4.0]), a=np.array([1.0, 2.0]))
        assert np.array_equal(c.flat(), [3, 4, 1, 2])
        assert np.shares_memory(c.flat(), c["b"]) and not c.flat().flags.writeable

    def test_views_of_a_stack_keep_the_leading_axis(self):
        c = ck(w=np.zeros((2, 3)), s=np.zeros(()), e=np.zeros((0, 2)), b=np.zeros(3))
        stack = np.arange(3.0 * c.num_params).reshape(3, c.num_params)
        views = c.views(stack)
        assert [(n, v.shape) for n, v in views.items()] == [
            ("w", (3, 2, 3)), ("s", (3,)), ("e", (3, 0, 2)), ("b", (3, 3))]
        for i, row in enumerate(stack):
            one = c.views(row)
            assert all(np.array_equal(views[n][i], one[n]) and one[n].shape == c[n].shape
                       for n in c)
            assert np.shares_memory(one["b"], row)
        views["b"][1, 2] = -1.0  # views, not copies
        assert stack[1, -1] == -1.0


class TestSaveLoad:
    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        save_checkpoint(Checkpoint({}), path)
        loaded = load_checkpoint(path)
        assert len(loaded) == 0

    def test_single_tensor_roundtrip(self, tmp_path):
        c = ck(w=np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "one.ckpt"
        save_checkpoint(c, path)
        assert load_checkpoint(path).equal(c)

    def test_name_order_preserved_on_disk(self, tmp_path):
        c = Checkpoint({"z": np.zeros(2), "a": np.ones(3), "m": np.zeros(1)})
        path = tmp_path / "order.ckpt"
        save_checkpoint(c, path)
        assert load_checkpoint(path).names() == ["z", "a", "m"]

    def test_meta_roundtrip(self, tmp_path):
        c = Checkpoint({"w": np.zeros(1)}, {"model_id": "zs", "step": "100"})
        path = tmp_path / "meta.ckpt"
        save_checkpoint(c, path)
        assert load_checkpoint(path).meta == {"model_id": "zs", "step": "100"}

    def test_float32_roundtrip(self, tmp_path, rng):
        c = random_checkpoint(rng, dtype=np.float32)
        path = tmp_path / "f32.ckpt"
        save_checkpoint(c, path)
        loaded = load_checkpoint(path)
        assert loaded.dtype == np.float32
        assert loaded.equal(c)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", 9, 0) + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        c = ck(w=np.arange(6.0))
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(c, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [(2 ** 62, 4), (2 ** 32, 2 ** 32), (0, 2 ** 62)])
    def test_huge_header_shape(self, tmp_path, shape):
        # int64 products of these shapes wrap to 0; the load must still fail
        # as a malformed file, not leak numpy's ValueError.
        path = tmp_path / "huge.ckpt"
        header = MAGIC + struct.pack("<II", 1, 1)
        header += struct.pack("<H", 1) + b"w" + struct.pack("<BB", 1, len(shape))
        header += struct.pack(f"<{len(shape)}Q", *shape) + struct.pack("<I", 0)
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("table, meta", [
        ([(b"a", 0, (2,), np.ones(2, "<f4").tobytes()), (b"b", 1, (2,), F64)], ()),
        ([(b"", 1, (2,), F64)], ()),
        ([(b"\xff", 1, (2,), F64)], ()),
        ([(b"w", 1, (2,), F64)], [(b"k\xc3", b"v")]),
        ([(b"w", 1, (2,), F64)], [(b"k", b"\xed\xa0\x80")]),  # an encoded surrogate
        ([(b"w", 1, (2,), F64)], [(b"k", b"1"), (b"k", b"2")]),
    ], ids=["mixed_dtypes", "empty_name", "name_not_utf8", "meta_key_not_utf8",
            "meta_value_not_utf8", "duplicate_meta_key"])
    def test_malformed_table_is_format_error(self, tmp_path, table, meta):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(container(table, meta))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_container_helper_matches_save(self, tmp_path):
        path = tmp_path / "ok.ckpt"
        save_checkpoint(Checkpoint({"w": np.array([1.0, 2.0])}, {"k": "v"}), path)
        assert path.read_bytes() == container([(b"w", 1, (2,), F64)], [(b"k", b"v")])

    @pytest.mark.parametrize("writer", ["save_checkpoint", "Frontier.to_csv"])
    def test_failed_write_keeps_previous_file(self, tmp_path, writer):
        class FailingPoint:
            @property
            def alpha(self):
                raise OSError("disk full")

        path = tmp_path / "out"
        path.write_bytes(b"previous")
        with pytest.raises((OSError, UnicodeEncodeError)):
            if writer == "save_checkpoint":
                # The lone surrogate cannot be encoded, so the write fails
                # after the tensor table is out.
                save_checkpoint(Checkpoint({"w": np.ones(3)}, {"note": "\ud800"}), path)
            else:
                frontier = Frontier([FrontierPoint(0.0, 0.5, 0.5), FrontierPoint(1.0, 0.5, 0.5)])
                frontier.points.append(FailingPoint())
                frontier.to_csv(path)
        assert path.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["out"]

    def test_payload_shape_mismatch(self, tmp_path):
        # Extra bytes beyond what the tensor table declares.
        c = ck(w=np.arange(6.0))
        path = tmp_path / "extra.ckpt"
        save_checkpoint(c, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestCompatibility:
    def test_reflexive(self):
        c = ck(w=np.zeros(2))
        validate_compatible(c, c)

    def test_missing_name(self):
        a = ck(w=np.zeros(2), b=np.zeros(2))
        b = ck(w=np.zeros(2))
        with pytest.raises(CompatibilityError, match="'b'"):
            validate_compatible(a, b)

    def test_shape_mismatch_names_tensor(self):
        a = ck(w=np.zeros(2))
        b = ck(w=np.zeros(3))
        with pytest.raises(CompatibilityError, match="'w'"):
            validate_compatible(a, b)

    def test_dtype_mismatch(self):
        a = Checkpoint({"w": np.zeros(2, np.float32)})
        b = Checkpoint({"w": np.zeros(2, np.float64)})
        with pytest.raises(CompatibilityError, match="dtype"):
            validate_compatible(a, b)


class TestLerp:
    def test_endpoints_exact(self, rng):
        a, b = random_checkpoint(rng), None
        b = Checkpoint({n: rng.standard_normal(t.shape) for n, t in a.items()})
        assert lerp(a, b, 0.0).equal(a.with_meta({}))
        assert lerp(a, b, 1.0).equal(b.with_meta({}))

    def test_midpoint(self):
        a = ck(w=np.array([0.0, 2.0]))
        b = ck(w=np.array([2.0, 4.0]))
        assert np.array_equal(lerp(a, b, 0.5)["w"], [1.0, 3.0])

    def test_alpha_out_of_range(self):
        a = ck(w=np.zeros(1))
        for alpha, shown in ((1.5, "1.5"), (-1e-300, "-1e-300"), (math.nan, "nan"),
                             (math.inf, "inf"), (-math.inf, "-inf")):
            for check in (lambda: lerp(a, a, alpha), lambda: check_alphas([0.0, alpha, 1.0])):
                with pytest.raises(ValueError) as info:
                    check()
                assert str(info.value) == f"alpha out of range: {shown}"

    def test_check_alphas_stores_a_zero_of_either_sign_as_zero(self):
        alphas = check_alphas([-0.0, np.float32(0.25), 1, np.float64(-0.0), 5e-324])
        assert alphas == [0.0, 0.25, 1.0, 0.0, 5e-324]
        assert [type(a) for a in alphas] == [float] * 5
        assert math.copysign(1.0, alphas[0]) == math.copysign(1.0, alphas[3]) == 1.0

    def test_alphas_and_coefficients_are_real_numbers(self):
        # Each was once cast by float(): "1" interpolated, and True was 1.0.
        a = ck(w=np.zeros(1))
        for check, message in (
            (lambda: lerp(a, a, "1"), "alpha must be a real number, got '1'"),
            (lambda: check_alphas([0.5, True]), "alpha must be a real number, got True"),
            (lambda: check_alphas([b"1"]), "alpha must be a real number, got b'1'"),
            (lambda: multi_combine(a, [a], ["0.5"]),
             "coefficient must be a real number, got '0.5'"),
            (lambda: multi_combine(a, [a], [True]), "coefficient must be a real number, got True"),
            (lambda: multi_combine(a, [a], [10**400]),
             f"coefficient must be finite, got {10**400}"),
        ):
            with pytest.raises(ValueError) as info:
                check()
            assert type(info.value) is ValueError and str(info.value) == message

    def test_symmetry_identity(self, rng):
        for _ in range(20):
            a = random_checkpoint(rng)
            b = Checkpoint({n: rng.standard_normal(t.shape) for n, t in a.items()})
            alpha = float(rng.uniform(0, 1))
            left = lerp(a, b, alpha).flat()
            right = lerp(b, a, 1.0 - alpha).flat()
            assert np.max(np.abs(left - right)) < 1e-12


class TestMultiCombine:
    def test_reduces_to_lerp(self, rng):
        a = random_checkpoint(rng)
        b = Checkpoint({n: rng.standard_normal(t.shape) for n, t in a.items()})
        combo = multi_combine(a, [b], [0.3])
        reference = lerp(a, b, 0.3)
        assert np.max(np.abs(combo.flat() - reference.flat())) < 1e-14

    def test_zero_coeffs_equal_base(self, rng):
        a = random_checkpoint(rng)
        b = Checkpoint({n: rng.standard_normal(t.shape) for n, t in a.items()})
        assert np.array_equal(multi_combine(a, [b, b], [0.0, 0.0]).flat(), a.flat())

    def test_hand_example(self):
        zs = ck(w=np.array([0.0]))
        f1 = ck(w=np.array([1.0]))
        f2 = ck(w=np.array([3.0]))
        out = multi_combine(zs, [f1, f2], [0.25, 0.25])
        assert out["w"][0] == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_and_oversum(self):
        a = ck(w=np.zeros(1))
        for combine, message in (
            (lambda: multi_combine(a, [a], [-0.1]), "coefficient must be >= 0, got -0.1"),
            (lambda: multi_combine(a, [a, a], [0.6, 0.6]), "coefficients sum to 1.2 > 1"),
            (lambda: multi_combine(a, [a], [float("nan")]), "coefficient must be finite, got nan"),
            (lambda: combine_rows(a, [a, a], [[float("nan"), 0.0]]),
             "coefficient must be finite, got nan"),
        ):
            with pytest.raises(ValueError) as info:
                combine()
            assert str(info.value) == message

    def test_uniform_equals_lerp_of_average(self, rng):
        # beta/k coefficients on k models == lerp toward their average
        for _ in range(20):
            zs = random_checkpoint(rng)
            k = int(rng.integers(1, 5))
            fts = [Checkpoint({n: rng.standard_normal(t.shape) for n, t in zs.items()})
                   for _ in range(k)]
            beta = float(rng.uniform(0, 1))
            combo = multi_combine(zs, fts, [beta / k] * k)
            reference = lerp(zs, average(fts), beta)
            assert np.max(np.abs(combo.flat() - reference.flat())) < 1e-10


class TestAverage:
    def test_single(self, rng):
        a = random_checkpoint(rng)
        assert np.array_equal(average([a]).flat(), a.flat())

    def test_pair(self):
        a = ck(w=np.array([1.0, 3.0]))
        b = ck(w=np.array([3.0, 5.0]))
        assert np.array_equal(average([a, b])["w"], [2.0, 4.0])

    def test_idempotent_on_identical(self, rng):
        a = random_checkpoint(rng)
        assert np.max(np.abs(average([a, a, a]).flat() - a.flat())) < 1e-15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average([])


def test_weight_arithmetic_and_finetune_keep_the_first_meta():
    # A patched checkpoint loads as the model it was patched from.
    (task,) = generate_tasks(0, num_classes=2, dim=3, samples_per_class=10, noise_scale=0.5,
                             partition=[(0, 1)])
    model = ToyModel.init(0, task.dim, hidden=(4,), embed_dim=2)
    zs = model.ckpt
    ft = finetune(model, task, TrainConfig(iterations=3, warmup=0, batch_size=4)).final
    assert ft.meta == zs.meta
    other = ft.with_meta({"tag": "ft"})
    for out in (lerp(zs, other, 0.25), lerp(zs, other, 1.0),
                multi_combine(zs, [other, other], [0.25, 0.5]), average([zs, other])):
        assert out.meta == zs.meta
        assert ToyModel(out).hidden == (4,)
    assert lerp(other, zs, 0.0).meta == average([other, zs]).meta == {"tag": "ft"}
    assert multi_combine(other, [zs], [1.0]).meta == {"tag": "ft"}


class TestSimilarity:
    def test_cosine_self(self, rng):
        a = random_checkpoint(rng)
        assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        a = ck(w=np.array([1.0, 0.0]))
        b = ck(w=np.array([0.0, 1.0]))
        assert cosine_similarity(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_analytic(self):
        a = ck(w=np.array([1.0, 0.0]))
        b = ck(w=np.array([1.0, 1.0]))
        assert cosine_similarity(a, b) == pytest.approx(0.70711, abs=1e-5)

    def test_cosine_zero_norm_rejected(self):
        a = ck(w=np.zeros(2))
        b = ck(w=np.ones(2))
        with pytest.raises(ValueError):
            cosine_similarity(a, b)

    def test_cosine_scale_invariant_and_symmetric(self, rng):
        for _ in range(20):
            a = random_checkpoint(rng)
            b = Checkpoint({n: rng.standard_normal(t.shape) for n, t in a.items()})
            s = float(rng.uniform(0.1, 10))
            scaled_a = Checkpoint({n: s * t for n, t in a.items()})
            scaled_b = Checkpoint({n: s * t for n, t in b.items()})
            assert cosine_similarity(a, b) == pytest.approx(
                cosine_similarity(b, a), abs=1e-14)
            assert cosine_similarity(scaled_a, scaled_b) == pytest.approx(
                cosine_similarity(a, b), abs=1e-10)

    def test_l1_examples(self):
        assert l1_mean_distance(ck(w=np.zeros(2)), ck(w=np.array([1.0, 3.0]))) == 2.0
        assert l1_mean_distance(ck(w=np.array([1.0])), ck(w=np.array([1.5]))) == 0.5
        a = ck(w=np.array([1.0, 2.0]))
        assert l1_mean_distance(a, a) == 0.0

    def test_l1_triangle_inequality(self, rng):
        for _ in range(30):
            a = random_checkpoint(rng)
            b = Checkpoint({n: rng.standard_normal(t.shape) for n, t in a.items()})
            c = Checkpoint({n: rng.standard_normal(t.shape) for n, t in a.items()})
            assert l1_mean_distance(a, c) <= (
                l1_mean_distance(a, b) + l1_mean_distance(b, c) + 1e-10
            )


@pytest.mark.parametrize("make, error, message", [
    (lambda zs: combine_rows(zs, [zs], [[0.5, 0.1]]), ValueError,
     "alphas and fts length mismatch"),
    (lambda zs: Checkpoint({"": np.zeros(2)}), CheckpointError, "invalid tensor name: ''"),
    (lambda zs: l1_mean_distance(Checkpoint({}), Checkpoint({})), ValueError,
     "empty checkpoint"),
], ids=["combine_row_of_wrong_length", "empty_tensor_name", "l1_of_empty_checkpoint"])
def test_error_paths(make, error, message):
    zs = Checkpoint({"w": np.zeros(3)})
    with pytest.raises(error) as info:
        make(zs)
    assert type(info.value) is error
    assert str(info.value) == message
