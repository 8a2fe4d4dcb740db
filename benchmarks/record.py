"""Shared benchmark-record writer: one envelope format for every bench.

Every benchmark that persists machine-readable results routes them
through :func:`record_bench`, which writes

- ``BENCH_<bench>.json`` — the latest run's full payload in a common
  envelope (schema, machine fingerprint, git revision, timestamp,
  direction-tagged headline metrics, raw data), and
- ``BENCH_history.jsonl`` — an append-only line per (bench, git
  revision) carrying just the headline, so successive PRs accumulate a
  per-revision performance trajectory.

``repro bench history`` (backed by :mod:`repro.obs.benchtrend`, the
in-package reader) renders that trajectory as a trend table and flags
direction-aware regressions of the latest revision against the previous
one recorded on the same machine.

The envelope intentionally replaces the earlier ad-hoc per-bench
schemas (``repro-bench-serve`` etc.); nothing consumed those
programmatically, and a single schema is what makes cross-bench
trending possible.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any

#: Common envelope identifier (matches repro.obs.benchtrend.BENCH_SCHEMA).
SCHEMA = "repro-bench"
SCHEMA_VERSION = 1

#: Repo root — bench records live next to README.md.
ROOT = Path(__file__).resolve().parents[1]

HISTORY_NAME = "BENCH_history.jsonl"


def machine_info() -> dict[str, Any]:
    """A coarse host fingerprint for judging result comparability."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 0,
    }


def _git(root: Path | None, *args: str) -> str | None:
    """Stdout of one git command in ``root``, or None when it fails."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=root or ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def git_rev(root: Path | None = None) -> str:
    """The current short git revision, or "" outside a checkout.

    A ``-dirty`` suffix marks a tree whose tracked files differ from
    HEAD: such a run did not measure HEAD, and must not replace HEAD's
    line in the history.  What benches write themselves does not count:
    the ``BENCH_*`` records and the artefacts rendered under
    ``benchmarks/output/``.
    """
    rev = _git(root, "rev-parse", "--short", "HEAD")
    if not rev:
        return ""
    changed = _git(root, "diff", "--name-only", "HEAD") or ""
    dirty = any(
        not Path(name).name.startswith("BENCH_")
        and not name.startswith("benchmarks/output/")
        for name in changed.splitlines()
        if name
    )
    return rev.strip() + ("-dirty" if dirty else "")


def _normalise_headline(
    headline: dict[str, Any] | None,
) -> dict[str, dict[str, Any]]:
    """Accept ``{"name": value}``, ``{"name": (value, "lower")}``, or the
    full ``{"name": {"value": ..., "better": ...}}`` form."""
    out: dict[str, dict[str, Any]] = {}
    for name, record in (headline or {}).items():
        if isinstance(record, dict):
            out[name] = {
                "value": float(record["value"]),
                "better": str(record.get("better", "lower")),
            }
        elif isinstance(record, (tuple, list)) and len(record) == 2:
            out[name] = {"value": float(record[0]), "better": str(record[1])}
        else:
            out[name] = {"value": float(record), "better": "lower"}
    return out


def record_bench(
    bench: str,
    data: dict[str, Any],
    headline: dict[str, Any] | None = None,
    *,
    merge: bool = False,
    root: Path | None = None,
) -> Path:
    """Write one benchmark's record in the common envelope.

    Args:
        bench: benchmark name; results land in ``BENCH_<bench>.json``.
        data: the raw result payload (bench-specific shape).
        headline: trend-tracked metrics — ``{"p99_ms": (1.2, "lower")}``
            style (see :func:`_normalise_headline` for accepted forms).
        merge: when True, ``data`` and ``headline`` update the existing
            envelope instead of replacing it — for benches whose
            scenarios run as separate tests writing one record.
        root: destination directory (default: the repo root).

    Returns:
        The path of the written ``BENCH_<bench>.json``.
    """
    destination = Path(root) if root is not None else ROOT
    path = destination / f"BENCH_{bench}.json"
    envelope: dict[str, Any] = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "created_unix": time.time(),
        "machine": machine_info(),
        "git_rev": git_rev(destination),
        "headline": {},
        "data": {},
    }
    if merge and path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
            if (
                isinstance(existing, dict)
                and existing.get("schema") == SCHEMA
                and existing.get("bench") == bench
            ):
                envelope["headline"] = dict(existing.get("headline", {}))
                envelope["data"] = dict(existing.get("data", {}))
        except (OSError, ValueError):
            pass
    envelope["data"].update(data)
    envelope["headline"].update(_normalise_headline(headline))
    path.write_text(json.dumps(envelope, indent=2) + "\n", encoding="utf-8")
    _update_history(destination, envelope)
    return path


def _update_history(destination: Path, envelope: dict[str, Any]) -> None:
    """Upsert this (bench, git_rev) run's headline into the history.

    Re-running a bench at the same revision replaces its line (the
    history tracks revisions, not invocations); a new revision appends.
    """
    history = destination / HISTORY_NAME
    line_payload = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "bench": envelope["bench"],
        "git_rev": envelope["git_rev"],
        "created_unix": envelope["created_unix"],
        "machine": envelope["machine"],
        "headline": envelope["headline"],
    }
    lines: list[str] = []
    if history.exists():
        try:
            raw_lines = history.read_text(encoding="utf-8").splitlines()
        except OSError:
            raw_lines = []
        for raw in raw_lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                parsed = json.loads(raw)
            except ValueError:
                continue
            if (
                parsed.get("bench") == envelope["bench"]
                and parsed.get("git_rev") == envelope["git_rev"]
            ):
                continue  # replaced by this run
            lines.append(raw)
    lines.append(json.dumps(line_payload, sort_keys=False))
    history.write_text("\n".join(lines) + "\n", encoding="utf-8")
