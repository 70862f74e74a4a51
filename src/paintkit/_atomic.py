"""Atomic file output: write to a temporary file beside the target, then
rename it over the target, so a reader sees the old file or the new one and
never a partial write."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a new file to stand in for `path`; it replaces `path` when the
    block exits normally and is deleted when the block raises. Permissions
    follow the umask, as for a plain `open`."""
    tmp = os.path.join(
        os.path.dirname(os.path.abspath(path)),
        f".{os.path.basename(path)}.{os.urandom(4).hex()}.tmp",
    )
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
