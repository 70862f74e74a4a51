"""Named tensor collections, a portable binary checkpoint container, and
weight-space arithmetic (interpolation, combination, similarity).

Arithmetic that returns a checkpoint gives it the first operand's meta, so
a patched model loads like the model it was patched from."""

from __future__ import annotations

import math
import struct
import sys
from collections import Counter

import numpy as np

from ._atomic import atomic_open

MAGIC = b"PAINTCKP"
FORMAT_VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
_MAX_COEFF_SUM = 1.0 + 1e-12  # the largest coefficient sum combine_rows takes


class CheckpointError(Exception):
    """Base error for checkpoint operations."""


class FormatError(CheckpointError):
    """Malformed or unsupported checkpoint file."""


class CompatibilityError(CheckpointError):
    """Two checkpoints cannot be combined (names, shapes, or dtype differ)."""


def _layout(shapes):
    """name -> (offset, shape) for tensors stored back to back in order."""
    layout, offset = {}, 0
    for name, shape in shapes:
        layout[name] = (offset, shape)
        offset += math.prod(shape)
    return layout


def _is_int(value):
    """Whether `value` is a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value):
    """Whether `value` is a Python or numpy integer or float, not a bool."""
    return _is_int(value) or isinstance(value, (float, np.floating))


def _repeated(values):
    """The first value, in order, that occurs in `values` more than once, or None."""
    return next((v for v, count in Counter(values).items() if count > 1), None)


class Checkpoint:
    """Ordered, immutable map from tensor name to array.

    All tensors share one dtype (float32 or float64) and every element must
    be finite. They live back to back, in insertion order (also the order on
    disk), in one contiguous read-only buffer; each tensor is a read-only view
    into it at a fixed offset. Metadata maps str keys to str values.
    """

    def __init__(self, tensors, meta=None):
        arrays = {}
        dtype = None
        for name, arr in dict(tensors).items():
            if not isinstance(name, str) or not name:
                raise CheckpointError(f"invalid tensor name: {name!r}")
            arr = np.asarray(arr)
            if arr.dtype not in _DTYPE_CODES:
                raise CheckpointError(f"tensor {name!r} is {arr.dtype}, not float32 or float64")
            if dtype is None:
                dtype = arr.dtype
            elif arr.dtype != dtype:
                raise CheckpointError(
                    f"mixed dtypes: tensor {name!r} is {arr.dtype}, expected {dtype}"
                )
            arrays[name] = arr
        buf = np.concatenate([a.ravel() for a in arrays.values()]) if arrays else np.zeros(0)
        self._adopt(buf, _layout((n, a.shape) for n, a in arrays.items()), meta)

    def _adopt(self, buf, layout, meta, error=CheckpointError):
        """Take `buf`, which nothing else may write, as the storage of `layout`."""
        buf.flags.writeable = False
        self._buf = buf
        self._layout = layout
        self._views = self.views(buf)
        self.meta = dict((meta or {}).items())
        for key, value in self.meta.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise CheckpointError(f"metadata must map str to str, got {key!r}: {value!r}")
        if not np.isfinite(buf).all():
            name = next(n for n, a in self.items() if not np.isfinite(a).all())
            raise error(f"non-finite element in tensor {name!r}")
        return self

    def _like(self, vec):
        """A checkpoint with this layout, dtype and meta over a copy of the flat `vec`."""
        return Checkpoint.__new__(Checkpoint)._adopt(vec.astype(self.dtype), self._layout,
                                                     self.meta)

    def views(self, vec):
        """Name -> view of the flat vector `vec`, laid out like this checkpoint.
        A stack of flat vectors, shape (A, num_params), keeps its leading axis:
        each view then has shape (A, *tensor_shape)."""
        lead = vec.shape[:-1]
        return {n: vec[..., o : o + math.prod(s)].reshape(lead + s)
                for n, (o, s) in self._layout.items()}

    @property
    def dtype(self):
        return self._buf.dtype

    def names(self):
        return list(self._views)

    def items(self):
        return self._views.items()

    def __getitem__(self, name):
        return self._views[name]

    def __contains__(self, name):
        return name in self._views

    def __iter__(self):
        return iter(self._views)

    def __len__(self):
        return len(self._views)

    @property
    def num_params(self):
        return self._buf.size

    def flat(self):
        """All tensors, in order, as one float64 vector. A float64 checkpoint
        returns its own read-only buffer."""
        return self._buf.astype(np.float64, copy=False)

    def equal(self, other):
        """Bit-exact equality of names, shapes, dtype, and values."""
        same_layout = list(self._layout.items()) == list(other._layout.items())
        return same_layout and self.dtype == other.dtype and np.array_equal(self._buf, other._buf)

    def with_meta(self, meta):
        return Checkpoint.__new__(Checkpoint)._adopt(self._buf, self._layout, meta)


def validate_compatible(a: Checkpoint, b: Checkpoint):
    """Raise CompatibilityError unless a and b share names, shapes, and dtype."""
    if a.names() != b.names():
        unshared = (n for n in a.names() + b.names() if n not in a or n not in b)
        offender = next(unshared, a.names()[0])
        raise CompatibilityError(f"name-set mismatch (tensor {offender!r})")
    if a._layout != b._layout:
        name = next(n for n, arr in a.items() if arr.shape != b[n].shape)
        raise CompatibilityError(
            f"shape mismatch for tensor {name!r}: {a[name].shape} vs {b[name].shape}"
        )
    if a.dtype != b.dtype:
        raise CompatibilityError(f"dtype mismatch: {a.dtype} vs {b.dtype}")


def _write_str(f, s, width="H"):
    data = s.encode("utf-8")
    f.write(struct.pack("<" + width, len(data)))
    f.write(data)


def save_checkpoint(ckpt: Checkpoint, path):
    """Write `ckpt` to `path` in the little-endian PAINTCKP container,
    atomically: `path` is either left as it was or fully replaced."""
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(ckpt)))
        for name, arr in ckpt.items():
            _write_str(f, name, "H")
            f.write(struct.pack(f"<BB{arr.ndim}Q", _DTYPE_CODES[arr.dtype], arr.ndim, *arr.shape))
        f.write(struct.pack("<I", len(ckpt.meta)))
        for key, value in ckpt.meta.items():
            _write_str(f, key, "I")
            _write_str(f, value, "I")
        f.write(ckpt._buf.astype(ckpt.dtype.newbyteorder("<"), copy=False).tobytes())


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise FormatError("truncated payload")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def read_str(self, width):
        (n,) = self.unpack(width)
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("string is not valid UTF-8") from None


def load_checkpoint(path) -> Checkpoint:
    """Read a PAINTCKP container back into a Checkpoint. A FormatError names
    `path`; an OSError names it already."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return _parse(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse(data) -> Checkpoint:
    """The Checkpoint in the bytes of a PAINTCKP container."""
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise FormatError("bad magic")
    version, count = r.unpack("II")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}")
    shapes, codes = {}, set()
    for _ in range(count):
        name = r.read_str("H")
        code, rank = r.unpack("BB")
        if not name or name in shapes:
            raise FormatError(f"empty or duplicate tensor name {name!r}")
        if code not in _CODE_DTYPES:
            raise FormatError(f"unknown dtype code {code} for tensor {name!r}")
        codes.add(code)
        shapes[name] = r.unpack(f"{rank}Q")
    if len(codes) > 1:
        raise FormatError("mixed float32 and float64 tensors")
    dtype = _CODE_DTYPES[codes.pop()] if codes else np.dtype(np.float64)
    meta = {}
    (n_meta,) = r.unpack("I")
    for _ in range(n_meta):
        key = r.read_str("I")
        if key in meta:
            raise FormatError(f"duplicate meta key {key!r}")
        meta[key] = r.read_str("I")
    # Python ints cannot wrap around, so a huge shape reads as a payload
    # longer than the file instead of a small int64 product.
    n_elem = sum(math.prod(shape) for shape in shapes.values())
    raw = r.take(n_elem * dtype.itemsize)
    if r.pos != len(r.data):
        raise FormatError("trailing bytes after payload")
    buf = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(dtype)
    try:
        return Checkpoint.__new__(Checkpoint)._adopt(
            buf, _layout(shapes.items()), meta, FormatError
        )
    except ValueError as exc:  # an empty tensor whose other dims exceed numpy's limits
        raise FormatError(f"invalid tensor shape: {exc}") from None


def check_alphas(values):
    """`values` as a list of floats, each a real number in [0, 1], a zero of
    either sign stored as 0.0. Any other value, NaN included, is a ValueError."""
    alphas = []
    for a in values:
        if not _is_real(a):
            raise ValueError(f"alpha must be a real number, got {a!r}")
        if not 0 <= a <= 1:
            raise ValueError(f"alpha out of range: {a}")
        alphas.append(float(a) + 0.0)
    return alphas


def check_count(name, value, least):
    """Reject a count or seed `value` that is not a Python or numpy integer
    (bools excluded) at least `least`, with a ValueError that names it."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_real(name, value, least, strict=False, error=ValueError):
    """Reject a real setting `value` that is not a finite Python or numpy integer
    or float (bools excluded) at least `least` (above it, if `strict`), with an
    `error` that names it."""
    if not _is_real(value):
        raise error(f"{name} must be a real number, got {value!r}")
    # math.isfinite cannot take an integer past float64's range.
    if isinstance(value, int) and abs(value) > sys.float_info.max or not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    if value < least or strict and value == least:
        raise error(f"{name} must be {'>' if strict else '>='} {least}, got {value}")


def lerp(zs: Checkpoint, ft: Checkpoint, alpha: float) -> Checkpoint:
    """(1-alpha)*zs + alpha*ft elementwise, with zs's meta. Endpoints are exact copies."""
    return multi_combine(zs, [ft], check_alphas([alpha]))


def multi_combine(zs: Checkpoint, fts, alphas) -> Checkpoint:
    """(1 - sum(alphas))*zs + sum_i alphas[i]*fts[i], with zs's meta."""
    (row,) = combine_rows(zs, fts, [alphas])
    return zs._like(row)


def combine_rows(zs: Checkpoint, fts, alpha_rows) -> np.ndarray:
    """A (len(alpha_rows), num_params) stack in zs's dtype whose row i holds
    the weights of multi_combine(zs, fts, alpha_rows[i]), laid out like zs.
    A row whose coefficients are all 0 is an exact copy of zs, and a row with
    one coefficient of 1 and the rest 0 an exact copy of that fine-tuned
    model: the arithmetic could flip the sign of a zero weight."""
    alpha_rows = [list(alphas) for alphas in alpha_rows]
    totals = []
    for alphas in alpha_rows:
        if len(alphas) != len(fts):
            raise ValueError("alphas and fts length mismatch")
        for a in alphas:
            check_real("coefficient", a, 0)
        total = sum(map(float, alphas))  # in float64, whatever the coefficients' type
        if total > _MAX_COEFF_SUM:
            raise ValueError(f"coefficients sum to {total} > 1")
        totals.append(total)
    for ft in fts:
        validate_compatible(zs, ft)
    coeffs = np.array(alpha_rows, dtype=np.float64).reshape(len(alpha_rows), len(fts))
    acc = (1.0 - np.array(totals, dtype=np.float64)).reshape(-1, 1) * zs.flat()
    for i, ft in enumerate(fts):
        acc += coeffs[:, i : i + 1] * ft.flat()
    rows = acc.astype(zs.dtype, copy=False)
    for row, alphas in zip(rows, alpha_rows):
        zeros = alphas.count(0.0)
        if zeros == len(alphas):
            row[:] = zs._buf
        elif zeros == len(alphas) - 1 and 1.0 in alphas:
            row[:] = fts[alphas.index(1.0)]._buf
    return rows


def average(fts) -> Checkpoint:
    """Elementwise mean of a nonempty list of checkpoints, with the first one's meta."""
    fts = list(fts)
    if not fts:
        raise ValueError("empty checkpoint list")
    first = fts[0]
    for other in fts[1:]:
        validate_compatible(first, other)
    mean = sum(ft.flat() for ft in fts) / len(fts)
    return first._like(mean)


def cosine_similarity(a: Checkpoint, b: Checkpoint) -> float:
    """cos(a, b) over flattened weights, accumulated in float64."""
    validate_compatible(a, b)
    va, vb = a.flat(), b.flat()
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero-norm operand")
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


def l1_mean_distance(a: Checkpoint, b: Checkpoint) -> float:
    """Mean elementwise absolute difference over all parameters."""
    validate_compatible(a, b)
    va, vb = a.flat(), b.flat()
    if va.size == 0:
        raise ValueError("empty checkpoint")
    return float(np.mean(np.abs(va - vb)))
