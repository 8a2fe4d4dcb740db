"""Generation-keyed SQLite time-series store for analytics metrics.

Opens its file through :func:`repro.sqlitedb.transaction`, as
:mod:`repro.sweep.store` does: WAL journal mode so a reader (the CLI,
the coordinator) never blocks the writer (the ingest observer), and a
busy timeout instead of hand-rolled retry loops.  Writes are
``INSERT OR IGNORE`` against unique keys, so every write is
idempotent — re-analyzing a generation after a crash or an offline
replay over an already-ingested WAL records nothing twice.

Layout:

- ``campaigns`` — one row per named metric stream.
- ``generations`` — one row per analyzed snapshot generation, carrying
  the publish sequence, snapshot hash, and size facts.
- ``metrics`` — the time series proper, keyed ``(campaign, gen, name)``.
- ``alerts`` — drift triggers/recoveries, keyed so a re-run cannot
  duplicate an alert.

Values are ``REAL NOT NULL``: SQLite stores a float NaN as NULL, so
non-finite values are rejected at the API boundary rather than
corrupting the series (the engine never emits them; see
:meth:`~repro.analytics.engine.AnalyticsEngine.metrics`).
"""

from __future__ import annotations

import math
import sqlite3
import time
from contextlib import AbstractContextManager
from pathlib import Path

from repro.errors import AnalyticsError
from repro.sqlitedb import transaction

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    name TEXT NOT NULL UNIQUE,
    created_unix REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS generations (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    gen INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    snapshot_hash TEXT NOT NULL,
    n_nodes INTEGER NOT NULL,
    n_links INTEGER NOT NULL,
    created_unix REAL NOT NULL,
    UNIQUE (campaign_id, gen)
);
CREATE TABLE IF NOT EXISTS metrics (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    gen INTEGER NOT NULL,
    name TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (campaign_id, gen, name)
);
CREATE TABLE IF NOT EXISTS alerts (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    gen INTEGER NOT NULL,
    metric TEXT NOT NULL,
    kind TEXT NOT NULL,
    value REAL NOT NULL,
    score REAL NOT NULL,
    threshold REAL NOT NULL,
    created_unix REAL NOT NULL,
    UNIQUE (campaign_id, gen, metric, kind)
);
CREATE INDEX IF NOT EXISTS idx_metrics_series
    ON metrics (campaign_id, name, gen);
"""


class MetricStore:
    """Durable per-generation metric series under one SQLite file."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._tx() as conn:
                conn.executescript(_SCHEMA)
        except (OSError, sqlite3.Error) as exc:
            raise AnalyticsError(
                f"cannot open metric store at {self.path}: {exc}"
            ) from exc

    def _tx(self) -> AbstractContextManager[sqlite3.Connection]:
        """One transaction; see :func:`repro.sqlitedb.transaction`."""
        return transaction(self.path)

    # -- write path -----------------------------------------------------------

    def ensure_campaign(self, name: str) -> int:
        """The id of the named campaign, creating it if needed."""
        with self._tx() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO campaigns (name, created_unix)"
                " VALUES (?, ?)",
                (name, time.time()),
            )
            row = conn.execute(
                "SELECT id FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
        return int(row[0])

    def record_generation(
        self,
        campaign_id: int,
        gen: int,
        metrics: dict[str, float],
        *,
        seq: int = 0,
        snapshot_hash: str = "",
        n_nodes: int = 0,
        n_links: int = 0,
    ) -> bool:
        """Record one generation's metrics; False when already stored.

        The generation row and its metric rows land in one transaction,
        so a crash mid-write leaves either nothing or everything — the
        resume path re-runs the write and the unique keys absorb it.
        """
        bad = [k for k, v in metrics.items() if not math.isfinite(v)]
        if bad:
            raise AnalyticsError(
                f"non-finite metric values for gen {gen}: {sorted(bad)}"
            )
        with self._tx() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO generations"
                " (campaign_id, gen, seq, snapshot_hash, n_nodes, n_links,"
                "  created_unix)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id, gen, seq, snapshot_hash,
                    n_nodes, n_links, time.time(),
                ),
            )
            fresh = cur.rowcount == 1
            conn.executemany(
                "INSERT OR IGNORE INTO metrics"
                " (campaign_id, gen, name, value) VALUES (?, ?, ?, ?)",
                [
                    (campaign_id, gen, name, float(value))
                    for name, value in sorted(metrics.items())
                ],
            )
        return fresh

    def record_alert(
        self,
        campaign_id: int,
        gen: int,
        metric: str,
        kind: str,
        *,
        value: float,
        score: float,
        threshold: float,
    ) -> bool:
        """Record one drift alert; False when already stored."""
        with self._tx() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO alerts"
                " (campaign_id, gen, metric, kind, value, score, threshold,"
                "  created_unix)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id, gen, metric, kind,
                    float(value), float(score), float(threshold), time.time(),
                ),
            )
            return cur.rowcount == 1

    # -- read path ------------------------------------------------------------

    def campaign_id(self, name: str) -> int | None:
        """The id of a campaign, None when it does not exist."""
        with self._tx() as conn:
            row = conn.execute(
                "SELECT id FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
        return None if row is None else int(row[0])

    def campaigns(self) -> list[str]:
        """All campaign names, oldest first."""
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT name FROM campaigns ORDER BY id"
            ).fetchall()
        return [r[0] for r in rows]

    def latest_gen(self, campaign_id: int) -> int | None:
        """The newest analyzed generation, None when empty."""
        with self._tx() as conn:
            row = conn.execute(
                "SELECT MAX(gen) FROM generations WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchone()
        return None if row[0] is None else int(row[0])

    def generation(self, campaign_id: int, gen: int) -> dict | None:
        """One generation's facts and metrics, None when absent."""
        with self._tx() as conn:
            row = conn.execute(
                "SELECT gen, seq, snapshot_hash, n_nodes, n_links,"
                " created_unix FROM generations"
                " WHERE campaign_id = ? AND gen = ?",
                (campaign_id, gen),
            ).fetchone()
            if row is None:
                return None
            metrics = conn.execute(
                "SELECT name, value FROM metrics"
                " WHERE campaign_id = ? AND gen = ? ORDER BY name",
                (campaign_id, gen),
            ).fetchall()
        return {
            "gen": int(row[0]),
            "seq": int(row[1]),
            "snapshot_hash": row[2],
            "n_nodes": int(row[3]),
            "n_links": int(row[4]),
            "created_unix": float(row[5]),
            "metrics": {name: float(value) for name, value in metrics},
        }

    def latest(self, campaign_id: int) -> dict | None:
        """The newest generation's facts and metrics, None when empty."""
        gen = self.latest_gen(campaign_id)
        if gen is None:
            return None
        return self.generation(campaign_id, gen)

    def generations(self, campaign_id: int) -> list[int]:
        """All analyzed generations, ascending."""
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT gen FROM generations WHERE campaign_id = ?"
                " ORDER BY gen",
                (campaign_id,),
            ).fetchall()
        return [int(r[0]) for r in rows]

    def history(
        self, campaign_id: int, metric: str, *, limit: int = 50
    ) -> list[tuple[int, float]]:
        """The newest ``limit`` points of one series, ascending by gen."""
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT gen, value FROM metrics"
                " WHERE campaign_id = ? AND name = ?"
                " ORDER BY gen DESC LIMIT ?",
                (campaign_id, metric, limit),
            ).fetchall()
        return [(int(g), float(v)) for g, v in reversed(rows)]

    def metric_names(self, campaign_id: int) -> list[str]:
        """Every metric name the campaign has recorded, sorted."""
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT DISTINCT name FROM metrics WHERE campaign_id = ?"
                " ORDER BY name",
                (campaign_id,),
            ).fetchall()
        return [r[0] for r in rows]

    def alerts(self, campaign_id: int, *, limit: int = 50) -> list[dict]:
        """The newest ``limit`` alerts, ascending by (gen, id)."""
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT gen, metric, kind, value, score, threshold,"
                " created_unix FROM alerts WHERE campaign_id = ?"
                " ORDER BY gen DESC, id DESC LIMIT ?",
                (campaign_id, limit),
            ).fetchall()
        return [
            {
                "gen": int(r[0]),
                "metric": r[1],
                "kind": r[2],
                "value": float(r[3]),
                "score": float(r[4]),
                "threshold": float(r[5]),
                "created_unix": float(r[6]),
            }
            for r in reversed(rows)
        ]
