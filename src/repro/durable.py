"""Crash-safe whole-file writes: readers see the old file or the new one."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["write_durably"]


def write_durably(path: Path, text: str, mode: int) -> None:
    """Replace *path* with *text*, durably.

    The text goes to ``<path>.tmp`` (created with *mode*), is flushed and
    fsynced, and only then renamed over *path*.  A write that fails
    removes the ``.tmp`` and leaves *path* as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
