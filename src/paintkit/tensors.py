"""Named tensor collections, a portable binary checkpoint container, and
weight-space arithmetic (interpolation, combination, similarity)."""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"PAINTCKP"
FORMAT_VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class CheckpointError(Exception):
    """Base error for checkpoint operations."""


class FormatError(CheckpointError):
    """Malformed or unsupported checkpoint file."""


class CompatibilityError(CheckpointError):
    """Two checkpoints cannot be combined (names, shapes, or dtype differ)."""


class Checkpoint:
    """Ordered, immutable map from tensor name to array.

    All tensors share one dtype (float32 or float64) and every element must
    be finite. Iteration order is insertion order and is preserved on disk.
    """

    def __init__(self, tensors, meta=None):
        self._tensors = {}
        dtype = None
        for name, arr in dict(tensors).items():
            if not isinstance(name, str) or not name:
                raise CheckpointError(f"invalid tensor name: {name!r}")
            arr = np.asarray(arr)
            if arr.dtype not in _DTYPE_CODES:
                arr = arr.astype(np.float64)
            if dtype is None:
                dtype = arr.dtype
            elif arr.dtype != dtype:
                raise CheckpointError(
                    f"mixed dtypes: tensor {name!r} is {arr.dtype}, expected {dtype}"
                )
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"non-finite element in tensor {name!r}")
            arr = arr.copy()
            arr.flags.writeable = False
            self._tensors[name] = arr
        self._dtype = dtype if dtype is not None else np.dtype(np.float64)
        self.meta = {str(k): str(v) for k, v in (meta or {}).items()}

    @property
    def dtype(self):
        return self._dtype

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def __getitem__(self, name):
        return self._tensors[name]

    def __contains__(self, name):
        return name in self._tensors

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self):
        return len(self._tensors)

    @property
    def num_params(self):
        return sum(a.size for a in self._tensors.values())

    def flat(self, exclude=()):
        """Concatenate all tensors (minus `exclude`) in name order as float64."""
        parts = [
            a.ravel().astype(np.float64)
            for n, a in self._tensors.items()
            if n not in exclude
        ]
        if not parts:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(parts)

    def equal(self, other):
        """Bit-exact equality of names, shapes, dtype, and values."""
        if self.names() != other.names() or self.dtype != other.dtype:
            return False
        return all(
            a.shape == other[n].shape and np.array_equal(a, other[n])
            for n, a in self.items()
        )

    def with_meta(self, meta):
        ckpt = Checkpoint.__new__(Checkpoint)
        ckpt._tensors = self._tensors
        ckpt._dtype = self._dtype
        ckpt.meta = {str(k): str(v) for k, v in meta.items()}
        return ckpt


def validate_compatible(a: Checkpoint, b: Checkpoint):
    """Raise CompatibilityError unless a and b share names, shapes, and dtype."""
    if a.names() != b.names():
        only_a = [n for n in a.names() if n not in b]
        only_b = [n for n in b.names() if n not in a]
        offender = (only_a + only_b)[0] if (only_a or only_b) else a.names()[0]
        raise CompatibilityError(f"name-set mismatch (tensor {offender!r})")
    for name in a.names():
        if a[name].shape != b[name].shape:
            raise CompatibilityError(
                f"shape mismatch for tensor {name!r}: "
                f"{a[name].shape} vs {b[name].shape}"
            )
    if a.dtype != b.dtype:
        raise CompatibilityError(f"dtype mismatch: {a.dtype} vs {b.dtype}")


def _write_str(f, s, width="H"):
    data = s.encode("utf-8")
    f.write(struct.pack("<" + width, len(data)))
    f.write(data)


def save_checkpoint(ckpt: Checkpoint, path):
    """Write `ckpt` to `path` in the little-endian PAINTCKP container."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(ckpt)))
        for name, arr in ckpt.items():
            _write_str(f, name, "H")
            f.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(struct.pack("<I", len(ckpt.meta)))
        for key, value in ckpt.meta.items():
            _write_str(f, key, "I")
            _write_str(f, value, "I")
        for _, arr in ckpt.items():
            f.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


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
        return self.take(n).decode("utf-8")


def load_checkpoint(path) -> Checkpoint:
    """Read a PAINTCKP container back into a Checkpoint."""
    with open(path, "rb") as f:
        r = _Reader(f.read())
    if r.take(len(MAGIC)) != MAGIC:
        raise FormatError("bad magic")
    version, count = r.unpack("II")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}")
    table = []
    for _ in range(count):
        name = r.read_str("H")
        code, rank = r.unpack("BB")
        if code not in _CODE_DTYPES:
            raise FormatError(f"unknown dtype code {code} for tensor {name!r}")
        shape = r.unpack(f"{rank}Q") if rank else ()
        table.append((name, _CODE_DTYPES[code], tuple(int(d) for d in shape)))
    names = [t[0] for t in table]
    if len(set(names)) != len(names):
        raise FormatError("duplicate tensor name")
    meta = {}
    (n_meta,) = r.unpack("I")
    for _ in range(n_meta):
        key = r.read_str("I")
        meta[key] = r.read_str("I")
    tensors = {}
    for name, dtype, shape in table:
        # Python ints cannot wrap around, so a huge shape reads as a payload
        # longer than the file instead of a small int64 product.
        n_elem = math.prod(shape)
        raw = r.take(n_elem * dtype.itemsize)
        arr = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(dtype)
        if arr.size != n_elem:
            raise FormatError(f"shape mismatch for tensor {name!r}")
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"non-finite element in tensor {name!r}")
        try:
            tensors[name] = arr.reshape(shape)
        except ValueError:  # an empty tensor whose other dims exceed numpy's limits
            raise FormatError(f"invalid shape {shape} for tensor {name!r}") from None
    if r.pos != len(r.data):
        raise FormatError("trailing bytes after payload")
    return Checkpoint(tensors, meta)


def _ident(ckpt):
    return ckpt.meta.get("model_id", "")


def lerp(zs: Checkpoint, ft: Checkpoint, alpha: float) -> Checkpoint:
    """(1-alpha)*zs + alpha*ft elementwise. Endpoints are exact copies."""
    validate_compatible(zs, ft)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha out of range: {alpha}")
    meta = {"alpha": repr(float(alpha)), "parent_zs": _ident(zs), "parent_ft": _ident(ft)}
    if alpha == 0.0:
        return Checkpoint({n: a for n, a in zs.items()}, meta)
    if alpha == 1.0:
        return Checkpoint({n: a for n, a in ft.items()}, meta)
    dtype = zs.dtype
    tensors = {
        n: ((1.0 - alpha) * a.astype(np.float64) + alpha * ft[n].astype(np.float64)).astype(dtype)
        for n, a in zs.items()
    }
    return Checkpoint(tensors, meta)


def multi_combine(zs: Checkpoint, fts, alphas) -> Checkpoint:
    """(1 - sum(alphas))*zs + sum_i alphas[i]*fts[i]."""
    alphas = [float(a) for a in alphas]
    if len(alphas) != len(fts):
        raise ValueError("alphas and fts length mismatch")
    if any(a < 0 for a in alphas):
        raise ValueError("negative coefficient")
    total = sum(alphas)
    if total > 1.0 + 1e-12:
        raise ValueError(f"coefficients sum to {total} > 1")
    for ft in fts:
        validate_compatible(zs, ft)
    dtype = zs.dtype
    tensors = {}
    for name, base in zs.items():
        acc = (1.0 - total) * base.astype(np.float64)
        for a, ft in zip(alphas, fts):
            acc = acc + a * ft[name].astype(np.float64)
        tensors[name] = acc.astype(dtype)
    meta = {
        "alphas": ",".join(repr(a) for a in alphas),
        "parent_zs": _ident(zs),
        "parent_fts": ";".join(_ident(ft) for ft in fts),
    }
    return Checkpoint(tensors, meta)


def average(fts) -> Checkpoint:
    """Elementwise arithmetic mean of a nonempty list of checkpoints."""
    fts = list(fts)
    if not fts:
        raise ValueError("empty checkpoint list")
    first = fts[0]
    for other in fts[1:]:
        validate_compatible(first, other)
    k = len(fts)
    tensors = {
        name: (sum(ft[name].astype(np.float64) for ft in fts) / k).astype(first.dtype)
        for name in first.names()
    }
    return Checkpoint(tensors, {"average_of": ";".join(_ident(ft) for ft in fts)})


def cosine_similarity(a: Checkpoint, b: Checkpoint, exclude=()) -> float:
    """cos(a, b) over flattened weights, accumulated in float64."""
    validate_compatible(a, b)
    va, vb = a.flat(exclude), b.flat(exclude)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero-norm operand")
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


def l1_mean_distance(a: Checkpoint, b: Checkpoint, exclude=()) -> float:
    """Mean elementwise absolute difference over all parameters."""
    validate_compatible(a, b)
    va, vb = a.flat(exclude), b.flat(exclude)
    if va.size == 0:
        raise ValueError("no tensors selected")
    return float(np.mean(np.abs(va - vb)))
