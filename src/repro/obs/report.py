"""Structured run reports: build, serialise, validate, render, diff.

A :class:`RunReport` is the machine-readable record one pipeline run
leaves behind (``--report out.json``): the scenario configuration and
seed, every stage's telemetry event, the full span tree, the metrics
snapshot, and a content hash per produced dataset.  Two reports are
directly comparable — :func:`diff_reports` flags stage wall-time
regressions past a threshold and *any* drift in counters or artifact
hashes, which turns perf/correctness regression checks into
``repro report diff a.json b.json``.

Validation is hand-rolled (:func:`validate_report`) so the schema check
needs no third-party dependency; the schema is versioned through
:data:`SCHEMA_VERSION` and checked on load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.errors import ReportError

#: Report type tag, embedded in every file.
SCHEMA = "repro-run-report"
#: Bump on any backwards-incompatible layout change.
SCHEMA_VERSION = 1

#: diff defaults: flag a stage only past both a relative and an absolute
#: slowdown, so sub-millisecond stages cannot trip the gate on noise.
DEFAULT_WALL_THRESHOLD = 0.25
DEFAULT_MIN_WALL_S = 0.05


def _jsonify(value: Any) -> Any:
    """Reduce a configuration object to plain JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def hash_column(h: Any, name: str, array: Any, dtype: Any = None) -> None:
    """Feed ``array``, cast to little-endian ``dtype`` (default: its own),
    into ``h`` after a ``(name, dtype, shape)`` header framing its bytes."""
    dtype = np.dtype(np.asarray(array).dtype if dtype is None else dtype)
    column = np.ascontiguousarray(array, dtype=dtype.newbyteorder("<"))
    h.update(repr((name, column.dtype.str, column.shape)).encode("utf-8"))
    h.update(column)


def dataset_digest(dataset: Any) -> str:
    """Content hash of one mapped dataset: SHA-256 over its label, kind
    and canonical-dtype columns, each framed by :func:`hash_column`."""
    from repro.datasets.serialize import CANONICAL_COLUMNS

    h = hashlib.sha256()
    for name in ("label", "kind"):
        text = getattr(dataset, name).encode("utf-8")
        hash_column(h, name, np.frombuffer(text, dtype=np.uint8))
    for name, dtype in CANONICAL_COLUMNS:
        column = getattr(dataset, name)
        if name == "links":
            column = np.reshape(column, (-1, 2))
        hash_column(h, name, column, dtype)
    return h.hexdigest()


@dataclass
class RunReport:
    """Everything one run leaves behind for later comparison.

    Attributes:
        seed: the scenario seed.
        config: the scenario configuration, reduced to JSON types.
        stage_events: per-stage telemetry dicts (``StageEvent.to_dict``).
        spans: the span forest (``Span.to_dict`` trees).
        metrics: a ``MetricsRegistry.snapshot()``.
        artifacts: dataset label -> content hash.
        argv: the command line that produced the run (may be empty).
        created_unix: wall-clock epoch seconds at report creation.
        schema_version: report layout version.
    """

    seed: int
    config: dict[str, Any] = field(default_factory=dict)
    stage_events: list[dict[str, Any]] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)
    argv: list[str] = field(default_factory=list)
    created_unix: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        """The on-disk JSON layout."""
        return {
            "schema": SCHEMA,
            "schema_version": self.schema_version,
            "created_unix": self.created_unix,
            "seed": self.seed,
            "config": self.config,
            "argv": list(self.argv),
            "stage_events": list(self.stage_events),
            "spans": list(self.spans),
            "metrics": self.metrics,
            "artifacts": dict(self.artifacts),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunReport":
        """Parse a validated payload.

        Raises:
            ReportError: when the payload fails schema validation.
        """
        errors = validate_report(payload)
        if errors:
            raise ReportError(
                "invalid run report: " + "; ".join(errors[:5])
            )
        return cls(
            seed=payload["seed"],
            config=dict(payload["config"]),
            stage_events=list(payload["stage_events"]),
            spans=list(payload["spans"]),
            metrics=dict(payload["metrics"]),
            artifacts=dict(payload["artifacts"]),
            argv=list(payload.get("argv", [])),
            created_unix=float(payload["created_unix"]),
            schema_version=int(payload["schema_version"]),
        )

    def iter_spans(self) -> Iterator[dict[str, Any]]:
        """Every span dict, depth-first across the forest."""

        def walk(node: dict[str, Any]) -> Iterator[dict[str, Any]]:
            yield node
            for child in node.get("children", ()):
                yield from walk(child)

        for root in self.spans:
            yield from walk(root)

    def span_depth(self) -> int:
        """Deepest nesting level of the span forest (0 when empty)."""

        def depth(node: dict[str, Any]) -> int:
            children = node.get("children", ())
            return 1 + max((depth(child) for child in children), default=0)

        return max((depth(root) for root in self.spans), default=0)

    def counter(self, name: str) -> int:
        """A metrics counter value (0 when absent)."""
        return int(self.metrics.get("counters", {}).get(name, 0))

    def stage_wall_s(self) -> dict[str, float]:
        """Stage name -> wall seconds."""
        return {e["stage"]: float(e["wall_s"]) for e in self.stage_events}


def build_run_report(
    *,
    config: Any,
    result: Any = None,
    telemetry: Any = None,
    tracer: Any = None,
    metrics: Any = None,
    argv: list[str] | None = None,
) -> RunReport:
    """Assemble a report from whatever observability a run collected.

    Args:
        config: the scenario configuration (a dataclass; jsonified).
        result: optional :class:`~repro.datasets.pipeline.PipelineResult`
            whose datasets are content-hashed into ``artifacts``.
        telemetry: optional :class:`~repro.runtime.telemetry.Telemetry`.
        tracer: optional :class:`~repro.obs.trace.Tracer`.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`.
        argv: the producing command line, for provenance.
    """
    events = (
        sorted(
            (e.to_dict() for e in telemetry.events),
            key=lambda e: (e["start_s"], e["stage"]),
        )
        if telemetry is not None
        else []
    )
    artifacts = (
        {
            label: dataset_digest(result.datasets[label])
            for label in sorted(result.datasets)
        }
        if result is not None
        else {}
    )
    return RunReport(
        seed=int(getattr(config, "seed", 0)),
        config=_jsonify(config),
        stage_events=events,
        spans=tracer.to_dicts() if tracer is not None else [],
        metrics=metrics.snapshot() if metrics is not None else {},
        artifacts=artifacts,
        argv=list(argv or []),
        created_unix=time.time(),
    )


def write_report(report: RunReport, path: str | Path) -> None:
    """Serialise a report to a JSON file.

    Raises:
        ReportError: when the destination cannot be written.
    """
    try:
        Path(path).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        raise ReportError(f"cannot write run report {path}: {exc}")


def load_report(path: str | Path) -> RunReport:
    """Read and validate a report file.

    Raises:
        ReportError: on a missing/unreadable file, bad JSON, or a
            payload failing schema validation.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ReportError(f"cannot read run report {path}: {exc}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportError(f"run report {path} is not valid JSON: {exc}")
    return RunReport.from_dict(payload)


# --- Schema validation -------------------------------------------------------


def _check_number(payload: Mapping[str, Any], key: str, where: str) -> list[str]:
    value = payload.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return [f"{where}.{key} must be a number, got {type(value).__name__}"]
    return []


def _validate_span(node: Any, where: str) -> list[str]:
    if not isinstance(node, dict):
        return [f"{where} must be an object"]
    errors: list[str] = []
    if not isinstance(node.get("name"), str):
        errors.append(f"{where}.name must be a string")
    for key in ("start_s", "end_s", "wall_s"):
        errors += _check_number(node, key, where)
    if not isinstance(node.get("attributes"), dict):
        errors.append(f"{where}.attributes must be an object")
    children = node.get("children")
    if not isinstance(children, list):
        errors.append(f"{where}.children must be an array")
    else:
        for i, child in enumerate(children):
            errors += _validate_span(child, f"{where}.children[{i}]")
    return errors


def _validate_stage_event(event: Any, where: str) -> list[str]:
    if not isinstance(event, dict):
        return [f"{where} must be an object"]
    errors: list[str] = []
    for key in ("stage", "status"):
        if not isinstance(event.get(key), str):
            errors.append(f"{where}.{key} must be a string")
    for key in ("wall_s", "rss_mb", "start_s", "end_s"):
        errors += _check_number(event, key, where)
    counters = event.get("counters")
    if not isinstance(counters, dict) or not all(
        isinstance(k, str) and isinstance(v, int)
        for k, v in counters.items()
    ):
        errors.append(f"{where}.counters must map strings to integers")
    return errors


def validate_report(payload: Any) -> list[str]:
    """Schema-check a raw report payload; returns a list of problems.

    An empty list means the payload is a valid
    version-:data:`SCHEMA_VERSION` run report.
    """
    if not isinstance(payload, dict):
        return ["report must be a JSON object"]
    errors: list[str] = []
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    if payload.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {payload.get('schema_version')!r}"
        )
    if not isinstance(payload.get("seed"), int):
        errors.append("seed must be an integer")
    errors += _check_number(payload, "created_unix", "report")
    if not isinstance(payload.get("config"), dict):
        errors.append("config must be an object")
    argv = payload.get("argv", [])
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        errors.append("argv must be an array of strings")
    events = payload.get("stage_events")
    if not isinstance(events, list):
        errors.append("stage_events must be an array")
    else:
        for i, event in enumerate(events):
            errors += _validate_stage_event(event, f"stage_events[{i}]")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        errors.append("spans must be an array")
    else:
        for i, node in enumerate(spans):
            errors += _validate_span(node, f"spans[{i}]")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("metrics must be an object")
    else:
        for section in ("counters", "gauges", "histograms"):
            if section in metrics and not isinstance(metrics[section], dict):
                errors.append(f"metrics.{section} must be an object")
        counters = metrics.get("counters", {})
        if isinstance(counters, dict) and not all(
            isinstance(v, int) for v in counters.values()
        ):
            errors.append("metrics.counters values must be integers")
    artifacts = payload.get("artifacts")
    if not isinstance(artifacts, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in artifacts.items()
    ):
        errors.append("artifacts must map labels to hash strings")
    return errors


# --- Rendering ---------------------------------------------------------------


def _format_span(node: Mapping[str, Any], indent: int, lines: list[str]) -> None:
    attrs = ", ".join(
        f"{k}={v}" for k, v in sorted(node.get("attributes", {}).items())
    )
    suffix = f"  [{attrs}]" if attrs else ""
    lines.append(
        f"{'  ' * indent}{node['name']:<32}  {node['wall_s']:>9.3f}s{suffix}"
    )
    for child in node.get("children", ()):
        _format_span(child, indent + 1, lines)


def render_report(report: RunReport) -> str:
    """Pretty-print one report (``repro report show``)."""
    created = time.strftime(
        "%Y-%m-%d %H:%M:%S UTC", time.gmtime(report.created_unix)
    )
    n_spans = sum(1 for _ in report.iter_spans())
    lines = [
        "RUN REPORT",
        f"created   {created}",
        f"seed      {report.seed}",
        f"stages    {len(report.stage_events)}",
        f"spans     {n_spans} (max depth {report.span_depth()})",
    ]
    if report.argv:
        lines.append(f"argv      {' '.join(report.argv)}")
    if report.stage_events:
        lines.append("")
        lines.append(f"{'stage':<24}  {'status':<9}  {'wall s':>8}  counters")
        for event in report.stage_events:
            counters = ", ".join(
                f"{k}={v}" for k, v in sorted(event["counters"].items())
            )
            lines.append(
                f"{event['stage']:<24}  {event['status']:<9}  "
                f"{event['wall_s']:>8.3f}  {counters}"
            )
    if report.spans:
        lines.append("")
        lines.append("SPAN TREE")
        for root in report.spans:
            _format_span(root, 0, lines)
    counters = report.metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("COUNTERS")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"{name:<{width}}  {counters[name]}")
    if report.artifacts:
        lines.append("")
        lines.append("ARTIFACTS")
        for label in sorted(report.artifacts):
            lines.append(f"{label:<24}  {report.artifacts[label][:16]}")
    return "\n".join(lines)


# --- Diff --------------------------------------------------------------------


@dataclass(frozen=True)
class ReportDiff:
    """Outcome of comparing two run reports.

    Attributes:
        regressions: stage wall-time slowdowns past the threshold.
        drifts: counter / artifact / structural differences (any drift
            is a correctness signal, not a perf one).
        notes: informational lines (improvements, totals).
    """

    regressions: tuple[str, ...]
    drifts: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def clean(self) -> bool:
        """True when nothing regressed or drifted."""
        return not self.regressions and not self.drifts


def diff_reports(
    old: RunReport,
    new: RunReport,
    *,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    min_wall_s: float = DEFAULT_MIN_WALL_S,
) -> ReportDiff:
    """Compare two reports: perf regressions and counter/artifact drift.

    A stage is a *regression* when its wall time grew by more than
    ``wall_threshold`` (fractional) *and* more than ``min_wall_s``
    seconds — both gates, so timing noise on sub-millisecond stages
    cannot fail a build.  Counter differences (stage counters, metrics
    counters) and artifact-hash differences are *drift* and always
    flagged: the pipeline is deterministic, so any drift means the two
    runs did not compute the same thing.
    """
    regressions: list[str] = []
    drifts: list[str] = []
    notes: list[str] = []

    old_events = {e["stage"]: e for e in old.stage_events}
    new_events = {e["stage"]: e for e in new.stage_events}
    for stage in sorted(old_events.keys() | new_events.keys()):
        if stage not in new_events:
            drifts.append(f"stage {stage!r} disappeared")
            continue
        if stage not in old_events:
            drifts.append(f"stage {stage!r} appeared")
            continue
        old_wall = float(old_events[stage]["wall_s"])
        new_wall = float(new_events[stage]["wall_s"])
        grew = new_wall - old_wall
        if grew > min_wall_s and new_wall > old_wall * (1.0 + wall_threshold):
            pct = 100.0 * grew / old_wall if old_wall > 0 else float("inf")
            regressions.append(
                f"stage {stage!r} slowed {old_wall:.3f}s -> {new_wall:.3f}s "
                f"(+{pct:.0f}%, threshold {wall_threshold:.0%})"
            )
        elif old_wall - new_wall > min_wall_s:
            notes.append(
                f"stage {stage!r} sped up {old_wall:.3f}s -> {new_wall:.3f}s"
            )
        old_counters = dict(old_events[stage]["counters"])
        new_counters = dict(new_events[stage]["counters"])
        if old_counters != new_counters:
            drifts.append(
                f"stage {stage!r} counters drifted "
                f"{old_counters} -> {new_counters}"
            )

    old_metrics = old.metrics.get("counters", {})
    new_metrics = new.metrics.get("counters", {})
    for name in sorted(old_metrics.keys() | new_metrics.keys()):
        a, b = old_metrics.get(name, 0), new_metrics.get(name, 0)
        if a != b:
            drifts.append(f"counter {name!r} drifted {a} -> {b}")

    for label in sorted(old.artifacts.keys() | new.artifacts.keys()):
        a, b = old.artifacts.get(label), new.artifacts.get(label)
        if a != b:
            drifts.append(
                f"artifact {label!r} content changed "
                f"({(a or 'absent')[:12]} -> {(b or 'absent')[:12]})"
            )

    old_total = sum(old.stage_wall_s().values())
    new_total = sum(new.stage_wall_s().values())
    notes.append(
        f"total stage wall {old_total:.3f}s -> {new_total:.3f}s"
    )
    return ReportDiff(
        regressions=tuple(regressions),
        drifts=tuple(drifts),
        notes=tuple(notes),
    )


def render_diff(diff: ReportDiff) -> str:
    """Pretty-print a diff (``repro report diff``)."""
    lines = ["RUN REPORT DIFF"]
    if diff.clean:
        lines.append("no regressions, no drift")
    for line in diff.regressions:
        lines.append(f"REGRESSION  {line}")
    for line in diff.drifts:
        lines.append(f"DRIFT       {line}")
    for line in diff.notes:
        lines.append(f"note        {line}")
    return "\n".join(lines)
