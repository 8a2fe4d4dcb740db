"""Shared SQLite connection settings for the on-disk stores.

:mod:`repro.sweep.store` and :mod:`repro.analytics.store` both open
their database through :func:`transaction`: WAL journal mode so readers
in other processes never block the writer, a busy timeout instead of
retry loops, and ``synchronous=NORMAL`` (a commit survives a killed
process; the last commits may be lost on power loss).
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


@contextmanager
def transaction(path: str | Path) -> Iterator[sqlite3.Connection]:
    """One transaction on a fresh connection, closed deterministically.

    ``sqlite3.Connection`` objects sit in an internal reference cycle
    (their statement-cache wrapper), so dropping the last visible
    reference does NOT close them — they linger with open WAL/shm
    handles until a cyclic GC pass.  A process forked while the parent
    holds live SQLite handles inherits the library's in-process lock
    state; its own writes then race the parent's and corrupt the
    database.  An explicit ``close()`` on every exit path is what makes
    the stores fork-safe.
    """
    conn = sqlite3.connect(path, timeout=30.0)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA busy_timeout=10000")
    conn.execute("PRAGMA synchronous=NORMAL")
    try:
        with conn:
            yield conn
    finally:
        conn.close()
