"""The persistent campaign result store (SQLite, WAL mode).

One database file holds any number of campaigns.  Layout:

- ``campaigns`` — one row per campaign: the full spec JSON, its content
  digest (resume refuses a changed spec), and a coarse status;
- ``trials`` — one row per expanded trial, ``UNIQUE(campaign_id, key)``
  so re-registration on resume can never duplicate work;
- ``trial_metrics`` — one row per (trial, metric name), replaced on
  re-run so a retried trial leaves exactly one value;
- ``trial_events`` — append-only worker heartbeats (``start`` /
  ``finish`` / ``fail``), each stamped with the worker PID, feeding the
  live ``sweep status --follow`` view.

The store opens in WAL mode with a busy timeout, so a ``sweep status``
reader in another process can poll live progress while the engine
writes.  Result writes stay parent-only — workers ship results back
over the process pool — but workers *do* append their own heartbeat
events directly (one short INSERT per lifecycle edge, safe under WAL's
multi-writer contract with the busy timeout as arbiter).

Campaigns additionally persist a ``trace_id``: the engine mints one
the first time a campaign runs and every trial — including trials run
by a later ``sweep resume`` — joins that trace, which is what lets
:mod:`repro.sweep.tracing` stitch one campaign-wide span tree out of
many worker processes across interruptions.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.errors import SweepError
from repro.sqlitedb import transaction
from repro.sweep.spec import SweepSpec, TrialSpec, canonical_json

#: Trial lifecycle states.
TRIAL_PENDING = "pending"
TRIAL_RUNNING = "running"
TRIAL_DONE = "done"
TRIAL_FAILED = "failed"

#: Campaign lifecycle states.
CAMPAIGN_CREATED = "created"
CAMPAIGN_RUNNING = "running"
CAMPAIGN_DONE = "done"
CAMPAIGN_INTERRUPTED = "interrupted"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE,
    spec_json TEXT NOT NULL,
    spec_digest TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'created',
    trace_id TEXT NOT NULL DEFAULT '',
    created_unix REAL NOT NULL,
    updated_unix REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS trials (
    id INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    key TEXT NOT NULL,
    kind TEXT NOT NULL,
    seed INTEGER NOT NULL,
    cell_json TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    wall_s REAL,
    report_json TEXT,
    started_unix REAL,
    finished_unix REAL,
    UNIQUE (campaign_id, key)
);
CREATE TABLE IF NOT EXISTS trial_metrics (
    trial_id INTEGER NOT NULL REFERENCES trials(id),
    name TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (trial_id, name)
);
CREATE TABLE IF NOT EXISTS trial_events (
    id INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    key TEXT NOT NULL,
    event TEXT NOT NULL,
    attempt INTEGER NOT NULL DEFAULT 0,
    pid INTEGER NOT NULL DEFAULT 0,
    ts REAL NOT NULL,
    fields_json TEXT
);
CREATE INDEX IF NOT EXISTS idx_trials_campaign_status
    ON trials (campaign_id, status);
CREATE INDEX IF NOT EXISTS idx_trial_events_campaign
    ON trial_events (campaign_id, id);
"""


@dataclass(frozen=True)
class TrialRow:
    """One persisted trial, as the aggregation layer consumes it.

    Attributes:
        key: the trial key.
        kind: trial kind.
        seed: trial seed.
        cell: the aggregation cell (kind + params).
        status: lifecycle state.
        attempts: execution attempts so far.
        error: last failure message, if any.
        wall_s: execution wall seconds of the successful attempt.
        metrics: metric name -> value (empty unless done).
    """

    key: str
    kind: str
    seed: int
    cell: dict[str, Any]
    status: str
    attempts: int
    error: str | None
    wall_s: float | None
    metrics: dict[str, float]


class ResultStore:
    """SQLite-backed campaign/trial/metric persistence.

    Safe for one writer plus concurrent readers in other processes
    (WAL); every method is a self-contained transaction.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._tx() as conn:
                conn.executescript(_SCHEMA)
                self._migrate(conn)
        except (OSError, sqlite3.Error) as exc:
            raise SweepError(f"cannot open result store {self.path}: {exc}")

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        """Bring pre-telemetry store files up to the current schema."""
        columns = {
            row[1] for row in conn.execute("PRAGMA table_info(campaigns)")
        }
        if "trace_id" not in columns:
            conn.execute(
                "ALTER TABLE campaigns ADD COLUMN trace_id TEXT NOT NULL "
                "DEFAULT ''"
            )

    def _tx(self) -> AbstractContextManager[sqlite3.Connection]:
        """One transaction; see :func:`repro.sqlitedb.transaction`."""
        return transaction(self.path)

    # -- campaigns ------------------------------------------------------------

    def ensure_campaign(self, spec: SweepSpec) -> int:
        """Create the campaign, or return the existing one for resume.

        Raises:
            SweepError: when a campaign of this name exists with a
                *different* spec (resuming it would mix incompatible
                trial grids).
        """
        digest = spec.digest()
        now = time.time()
        with self._tx() as conn:
            row = conn.execute(
                "SELECT id, spec_digest FROM campaigns WHERE name = ?",
                (spec.name,),
            ).fetchone()
            if row is not None:
                if row[1] != digest:
                    raise SweepError(
                        f"campaign {spec.name!r} exists with a different "
                        f"spec (digest {row[1][:12]} != {digest[:12]}); "
                        "rename the campaign or use a fresh store"
                    )
                return int(row[0])
            cursor = conn.execute(
                "INSERT INTO campaigns "
                "(name, spec_json, spec_digest, status, created_unix, "
                " updated_unix) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    spec.name,
                    canonical_json(spec.to_dict()),
                    digest,
                    CAMPAIGN_CREATED,
                    now,
                    now,
                ),
            )
            return int(cursor.lastrowid)

    def campaign_id(self, name: str) -> int:
        """Look a campaign up by name.

        Raises:
            SweepError: when absent.
        """
        with self._tx() as conn:
            row = conn.execute(
                "SELECT id FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            raise SweepError(f"no campaign {name!r} in {self.path}")
        return int(row[0])

    def load_spec(self, name: str) -> SweepSpec:
        """The spec a campaign was created from (for ``sweep resume``)."""
        with self._tx() as conn:
            row = conn.execute(
                "SELECT spec_json FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            raise SweepError(f"no campaign {name!r} in {self.path}")
        return SweepSpec.from_dict(json.loads(row[0]))

    def ensure_trace_id(self, campaign_id: int, trace_id: str) -> str:
        """Persist ``trace_id`` for a campaign unless one is already set.

        Returns the campaign's effective trace ID — the existing one on
        resume, so every invocation of a campaign joins the same trace.
        """
        with self._tx() as conn:
            row = conn.execute(
                "SELECT trace_id FROM campaigns WHERE id = ?", (campaign_id,)
            ).fetchone()
            if row is None:
                raise SweepError(f"no campaign id {campaign_id} in {self.path}")
            if row[0]:
                return str(row[0])
            conn.execute(
                "UPDATE campaigns SET trace_id = ? WHERE id = ?",
                (trace_id, campaign_id),
            )
            return trace_id

    def campaign_info(self, name: str) -> dict[str, Any]:
        """Status, trace ID, and trial counts of one campaign.

        Raises:
            SweepError: when absent.
        """
        with self._tx() as conn:
            row = conn.execute(
                "SELECT id, status, trace_id, created_unix, updated_unix "
                "FROM campaigns WHERE name = ?",
                (name,),
            ).fetchone()
        if row is None:
            raise SweepError(f"no campaign {name!r} in {self.path}")
        cid = int(row[0])
        return {
            "id": cid,
            "name": name,
            "status": row[1],
            "trace_id": row[2],
            "created_unix": float(row[3]),
            "updated_unix": float(row[4]),
            "trials": self.counts(cid),
        }

    def set_campaign_status(self, campaign_id: int, status: str) -> None:
        """Move a campaign through its lifecycle."""
        with self._tx() as conn:
            conn.execute(
                "UPDATE campaigns SET status = ?, updated_unix = ? WHERE id = ?",
                (status, time.time(), campaign_id),
            )

    def list_campaigns(self) -> list[dict[str, Any]]:
        """Name, status, and trial counts of every campaign in the store."""
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT id, name, status, created_unix FROM campaigns "
                "ORDER BY created_unix"
            ).fetchall()
            out = []
            for cid, name, status, created in rows:
                counts = dict(
                    conn.execute(
                        "SELECT status, COUNT(*) FROM trials "
                        "WHERE campaign_id = ? GROUP BY status",
                        (cid,),
                    ).fetchall()
                )
                out.append(
                    {
                        "name": name,
                        "status": status,
                        "created_unix": created,
                        "trials": counts,
                    }
                )
        return out

    # -- trials ---------------------------------------------------------------

    def register_trials(
        self, campaign_id: int, trials: list[TrialSpec]
    ) -> None:
        """Insert trial rows, ignoring ones already present (resume)."""
        with self._tx() as conn:
            conn.executemany(
                "INSERT OR IGNORE INTO trials "
                "(campaign_id, key, kind, seed, cell_json) "
                "VALUES (?, ?, ?, ?, ?)",
                [
                    (
                        campaign_id,
                        t.key,
                        t.kind,
                        t.seed,
                        canonical_json(t.cell),
                    )
                    for t in trials
                ],
            )

    def statuses(self, campaign_id: int) -> dict[str, str]:
        """Trial key -> lifecycle state."""
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT key, status FROM trials WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchall()
        return {key: status for key, status in rows}

    def counts(self, campaign_id: int) -> dict[str, int]:
        """Lifecycle state -> trial count."""
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) FROM trials "
                "WHERE campaign_id = ? GROUP BY status",
                (campaign_id,),
            ).fetchall()
        return {status: int(n) for status, n in rows}

    def mark_running(self, campaign_id: int, key: str, attempt: int) -> None:
        """Record a dispatch: status running, attempts = attempt + 1."""
        with self._tx() as conn:
            conn.execute(
                "UPDATE trials SET status = ?, attempts = ?, started_unix = ? "
                "WHERE campaign_id = ? AND key = ?",
                (TRIAL_RUNNING, attempt + 1, time.time(), campaign_id, key),
            )

    def record_success(
        self,
        campaign_id: int,
        key: str,
        *,
        metrics: dict[str, float],
        wall_s: float,
        report_json: str | None = None,
    ) -> None:
        """Persist a completed trial and its metrics (replacing any
        partial earlier attempt)."""
        with self._tx() as conn:
            conn.execute(
                "UPDATE trials SET status = ?, error = NULL, wall_s = ?, "
                "report_json = ?, finished_unix = ? "
                "WHERE campaign_id = ? AND key = ?",
                (TRIAL_DONE, wall_s, report_json, time.time(), campaign_id, key),
            )
            trial_id = conn.execute(
                "SELECT id FROM trials WHERE campaign_id = ? AND key = ?",
                (campaign_id, key),
            ).fetchone()[0]
            conn.execute(
                "DELETE FROM trial_metrics WHERE trial_id = ?", (trial_id,)
            )
            conn.executemany(
                "INSERT OR REPLACE INTO trial_metrics (trial_id, name, value) "
                "VALUES (?, ?, ?)",
                [
                    (trial_id, name, float(value))
                    for name, value in sorted(metrics.items())
                ],
            )

    def record_failure(self, campaign_id: int, key: str, error: str) -> None:
        """Record a trial as failed (attempts exhausted)."""
        with self._tx() as conn:
            conn.execute(
                "UPDATE trials SET status = ?, error = ?, finished_unix = ? "
                "WHERE campaign_id = ? AND key = ?",
                (TRIAL_FAILED, error[:2000], time.time(), campaign_id, key),
            )

    def reset_incomplete(self, campaign_id: int) -> int:
        """Re-queue running trials left over by an interrupted run."""
        with self._tx() as conn:
            cursor = conn.execute(
                "UPDATE trials SET status = ? "
                "WHERE campaign_id = ? AND status = ?",
                (TRIAL_PENDING, campaign_id, TRIAL_RUNNING),
            )
            return cursor.rowcount

    def trial_rows(self, campaign_id: int) -> Iterator[TrialRow]:
        """Every trial with its metrics, in key order."""
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT id, key, kind, seed, cell_json, status, attempts, "
                "error, wall_s FROM trials WHERE campaign_id = ? ORDER BY key",
                (campaign_id,),
            ).fetchall()
            metric_rows = conn.execute(
                "SELECT m.trial_id, m.name, m.value FROM trial_metrics m "
                "JOIN trials t ON t.id = m.trial_id WHERE t.campaign_id = ?",
                (campaign_id,),
            ).fetchall()
        by_trial: dict[int, dict[str, float]] = {}
        for trial_id, name, value in metric_rows:
            by_trial.setdefault(int(trial_id), {})[name] = float(value)
        for trial_id, key, kind, seed, cell_json, status, attempts, error, wall in rows:
            yield TrialRow(
                key=key,
                kind=kind,
                seed=int(seed),
                cell=json.loads(cell_json),
                status=status,
                attempts=int(attempts),
                error=error,
                wall_s=None if wall is None else float(wall),
                metrics=by_trial.get(int(trial_id), {}),
            )

    # -- worker heartbeats ----------------------------------------------------

    def record_event(
        self,
        campaign_id: int,
        key: str,
        event: str,
        *,
        attempt: int = 0,
        pid: int = 0,
        fields: dict[str, Any] | None = None,
    ) -> None:
        """Append one heartbeat event (called from worker processes).

        One short INSERT per call; WAL plus the busy timeout make this
        safe alongside the parent's result writes.
        """
        with self._tx() as conn:
            conn.execute(
                "INSERT INTO trial_events "
                "(campaign_id, key, event, attempt, pid, ts, fields_json) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    key,
                    event,
                    attempt,
                    pid,
                    time.time(),
                    None if fields is None else json.dumps(fields),
                ),
            )

    def events_since(
        self, campaign_id: int, after_id: int = 0, limit: int = 1000
    ) -> list[dict[str, Any]]:
        """Heartbeat events with ``id > after_id``, oldest first.

        The follow view polls this with the last seen ``id`` as the
        cursor; the cap bounds one poll's memory.
        """
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT id, key, event, attempt, pid, ts, fields_json "
                "FROM trial_events WHERE campaign_id = ? AND id > ? "
                "ORDER BY id LIMIT ?",
                (campaign_id, after_id, limit),
            ).fetchall()
        out = []
        for row_id, key, event, attempt, pid, ts, fields_json in rows:
            record: dict[str, Any] = {
                "id": int(row_id),
                "key": key,
                "event": event,
                "attempt": int(attempt),
                "pid": int(pid),
                "ts": float(ts),
            }
            if fields_json:
                record.update(json.loads(fields_json))
            out.append(record)
        return out

    def trial_reports(self, campaign_id: int) -> Iterator[tuple[str, dict[str, Any]]]:
        """Every trial's ``(key, report)`` that shipped one, in key order."""
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT key, report_json FROM trials "
                "WHERE campaign_id = ? AND report_json IS NOT NULL "
                "ORDER BY key",
                (campaign_id,),
            ).fetchall()
        for key, report_json in rows:
            yield key, json.loads(report_json)
