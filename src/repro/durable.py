"""Power-loss-safe file writes.

``os.replace`` alone survives a killed process, not a power loss: the
file's data and the directory entry naming it may still be in cache.
"""

from __future__ import annotations

import os
from pathlib import Path


def durable_replace(tmp: Path, path: Path) -> None:
    """Replace ``path`` with ``tmp``: fsync ``tmp``, rename, then fsync
    the directory so the rename itself is on disk."""
    fsync_path(tmp)
    os.replace(tmp, path)
    fsync_path(path.parent)


def fsync_path(target: Path) -> None:
    """fsync a file or a directory by path."""
    fd = os.open(target, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
