"""Crash-safe whole-file writes: readers see the old file or the new one,
and each name created here is durable (its directory is fsynced)."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["make_dirs", "write_durably"]


def _fsync_directory(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def make_dirs(path: Path) -> None:
    """``mkdir -p`` *path*, fsyncing the parent of every directory it
    creates, so a file later written into *path* stays reachable."""
    if not path.is_dir():
        make_dirs(path.parent)
        path.mkdir(exist_ok=True)
        _fsync_directory(path.parent)


def write_durably(path: Path, text: str | bytes, mode: int) -> None:
    """Replace *path* with *text* (or raw bytes), durably.

    The text goes to ``<path>.tmp`` (created with *mode*), is flushed and
    fsynced, and only then renamed over *path*; the directory is fsynced
    after the rename.  A write that fails removes the ``.tmp`` and leaves
    *path* as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode)
    try:
        with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    _fsync_directory(path.parent)
