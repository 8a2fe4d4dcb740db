"""Bench-trend tracking: reading benchmark records across revisions.

``benchmarks/record.py`` writes every benchmark's results in one
envelope — ``BENCH_<name>.json`` for the latest run plus an append-only
``BENCH_history.jsonl`` with one line per (bench, git revision) — so
PRs accumulate a per-revision performance record.  This module is the
*reading* side, shipped inside the package (the ``benchmarks/``
directory is not importable at runtime): it loads those files, orders
each benchmark's headline metrics by time, and flags direction-aware
regressions of the latest revision against the last earlier one
recorded on the same machine fingerprint.

``repro bench history`` renders the trend table and, with ``--check``,
exits nonzero on a flagged regression — the hook the CI telemetry
gate uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.errors import ReproError

#: Envelope schema identifier written by ``benchmarks/record.py``.
BENCH_SCHEMA = "repro-bench"

#: Latest-run snapshot files.
BENCH_GLOB = "BENCH_*.json"

#: The append-only per-revision history file.
HISTORY_FILE = "BENCH_history.jsonl"

#: Default fractional worsening of a headline metric that counts as a
#: regression (10%).
DEFAULT_THRESHOLD = 0.10


class BenchHistoryError(ReproError):
    """Bench record files are missing or malformed."""


@dataclass(frozen=True)
class BenchEntry:
    """One benchmark run's headline record.

    Attributes:
        bench: benchmark name (``serve``, ``sweep``, ...).
        git_rev: the revision the run measured ("" when unknown).
        created_unix: run wall-clock timestamp.
        headline: metric name -> ``{"value": float, "better": str}``
            where ``better`` is ``"lower"`` or ``"higher"``.
        machine: host fingerprint (python, platform, cpus).
    """

    bench: str
    git_rev: str
    created_unix: float
    headline: dict[str, dict[str, Any]] = field(default_factory=dict)
    machine: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "BenchEntry | None":
        """Parse one envelope/history line; non-bench payloads yield None."""
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != BENCH_SCHEMA:
            return None
        bench = payload.get("bench")
        if not isinstance(bench, str) or not bench:
            return None
        headline = {}
        for name, record in dict(payload.get("headline", {})).items():
            if not isinstance(record, dict) or "value" not in record:
                continue
            try:
                value = float(record["value"])
            except (TypeError, ValueError):
                continue
            headline[str(name)] = {
                "value": value,
                "better": str(record.get("better", "lower")),
            }
        return cls(
            bench=bench,
            git_rev=str(payload.get("git_rev", "")),
            created_unix=float(payload.get("created_unix", 0.0)),
            headline=headline,
            machine=dict(payload.get("machine", {})),
        )


def load_entries(path: str | Path) -> list[BenchEntry]:
    """Load bench entries from a directory (or one file), oldest first.

    A directory contributes its ``BENCH_history.jsonl`` plus any
    ``BENCH_*.json`` snapshots; duplicates — the same (bench, git_rev,
    created_unix) seen in both — collapse to one entry.

    Raises:
        BenchHistoryError: when the path does not exist or no record
            parses.
    """
    root = Path(path)
    if not root.exists():
        raise BenchHistoryError(f"no such bench record path: {root}")
    payloads: list[dict[str, Any]] = []
    if root.is_file():
        payloads.extend(_read_file(root))
    else:
        history = root / HISTORY_FILE
        if history.exists():
            payloads.extend(_read_file(history))
        for snapshot in sorted(root.glob(BENCH_GLOB)):
            payloads.extend(_read_file(snapshot))
    seen: dict[tuple[str, str, float], BenchEntry] = {}
    for payload in payloads:
        entry = BenchEntry.from_payload(payload)
        if entry is None:
            continue
        seen[(entry.bench, entry.git_rev, entry.created_unix)] = entry
    if not seen:
        raise BenchHistoryError(
            f"no bench records under {root} (expected {BENCH_GLOB} or "
            f"{HISTORY_FILE} written by benchmarks/record.py)"
        )
    return sorted(seen.values(), key=lambda e: (e.bench, e.created_unix))


def _read_file(path: Path) -> list[dict[str, Any]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BenchHistoryError(f"cannot read {path}: {exc}")
    if path.suffix == ".jsonl":
        out = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except ValueError:
                continue  # a torn write must not sink the whole history
        return out
    try:
        return [json.loads(text)]
    except ValueError as exc:
        raise BenchHistoryError(f"malformed bench record {path}: {exc}")


@dataclass(frozen=True)
class TrendRow:
    """One (bench, metric) trend across revisions.

    Attributes:
        bench: benchmark name.
        metric: headline metric name.
        better: ``"lower"`` or ``"higher"``.
        values: ``(git_rev, value)`` pairs, oldest first.
        latest: most recent value.
        previous: the last earlier value recorded on the same machine
            fingerprint (None when there is none) — a change of host is
            not a regression.
        change: fractional change latest vs previous, signed so that
            positive means *worse* (direction-aware); None without a
            previous value.
        regressed: True when ``change`` exceeds the threshold.
    """

    bench: str
    metric: str
    better: str
    values: tuple[tuple[str, float], ...]
    latest: float
    previous: float | None
    change: float | None
    regressed: bool


def trend_rows(
    entries: Iterable[BenchEntry],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[TrendRow]:
    """Fold entries into per-(bench, metric) trend rows."""
    series: dict[tuple[str, str], list[tuple[float, str, float, str, str]]] = {}
    for entry in entries:
        host = json.dumps(entry.machine, sort_keys=True)
        for metric, record in entry.headline.items():
            series.setdefault((entry.bench, metric), []).append(
                (
                    entry.created_unix,
                    entry.git_rev,
                    float(record["value"]),
                    record.get("better", "lower"),
                    host,
                )
            )
    rows: list[TrendRow] = []
    for (bench, metric), points in sorted(series.items()):
        points.sort(key=lambda p: p[0])
        better = points[-1][3]
        values = tuple((rev, value) for _, rev, value, _, _ in points)
        latest = values[-1][1]
        host = points[-1][4]
        previous = next(
            (p[2] for p in reversed(points[:-1]) if p[4] == host), None
        )
        change: float | None = None
        regressed = False
        if previous is not None and previous != 0:
            raw = (latest - previous) / abs(previous)
            change = raw if better == "lower" else -raw
            regressed = change > threshold
        rows.append(
            TrendRow(
                bench=bench,
                metric=metric,
                better=better,
                values=values,
                latest=latest,
                previous=previous,
                change=change,
                regressed=regressed,
            )
        )
    return rows


def render_history(rows: list[TrendRow]) -> str:
    """The ``repro bench history`` trend table.

    The ``worse by`` column is :attr:`TrendRow.change`: positive means
    worse whichever direction the metric improves in.
    """
    if not rows:
        return "BENCH HISTORY\n(no records)"
    bench_w = max(len("bench"), max(len(r.bench) for r in rows))
    metric_w = max(len("metric"), max(len(r.metric) for r in rows))
    lines = [
        "BENCH HISTORY",
        f"{'bench':<{bench_w}}  {'metric':<{metric_w}}  {'runs':>4}  "
        f"{'previous':>12}  {'latest':>12}  {'worse by':>8}  flag",
    ]
    for row in rows:
        previous = "-" if row.previous is None else f"{row.previous:.4g}"
        change = "-" if row.change is None else f"{row.change:+.1%}"
        flag = "REGRESSED" if row.regressed else ""
        lines.append(
            f"{row.bench:<{bench_w}}  {row.metric:<{metric_w}}  "
            f"{len(row.values):>4}  {previous:>12}  {row.latest:>12.4g}  "
            f"{change:>8}  {flag}"
        )
    return "\n".join(lines)
