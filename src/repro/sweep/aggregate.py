"""Campaign aggregation: per-cell summaries, bootstrap CIs, scoring.

Completed trials are grouped into *cells* (identical kind + parameters,
seed excluded) and every metric is summarised across the cell's seeds
with a seeded percentile-bootstrap confidence interval on the mean.
The paper's headline statistics — the superlinear population exponent
alpha, the Waxman decay constant L, the distance-sensitive link
fraction, and the intradomain link share — therefore come out of a
campaign with uncertainty attached rather than as single numbers.

A second pass scores generator cells against the campaign's own
empirical pipeline cells: each Waxman / BA / BRITE / GeoGen
configuration is ranked by how close its alpha exponent and implied
Waxman L land to the pipeline ensemble's means, extending the
single-graph ``compare_generator`` test to whole configuration grids.

The resulting *sweep report* is a JSON document
(``schema: repro-sweep-report`` v1) that ``report diff`` can compare
across campaigns: a metric whose mean moved by more than a threshold
multiple of the bootstrap half-width counts as a regression, reusing
the :class:`~repro.obs.report.ReportDiff` machinery.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.errors import SweepError
from repro.obs.report import ReportDiff
from repro.sweep.spec import canonical_json
from repro.sweep.store import TRIAL_DONE, TRIAL_FAILED, ResultStore

SWEEP_REPORT_SCHEMA = "repro-sweep-report"
SWEEP_REPORT_VERSION = 1

#: Headline metrics surfaced first by the renderer.
HEADLINE_METRICS = (
    "alpha_exponent",
    "waxman_l_miles",
    "sensitive_fraction",
    "intradomain_share",
)

#: Score charged per missing comparison component when ranking
#: generator configurations (a config that cannot be compared at all
#: sorts last, at 2 components x this penalty).
MISSING_COMPONENT_PENALTY = 2.0


@dataclass(frozen=True)
class MetricSummary:
    """One metric across a cell's completed trials.

    Attributes:
        mean: sample mean.
        std: sample standard deviation (ddof=1; 0 for one sample).
        lo: lower bootstrap percentile bound of the mean.
        hi: upper bootstrap percentile bound of the mean.
        n: samples (trials that produced the metric).
    """

    mean: float
    std: float
    lo: float
    hi: float
    n: int


@dataclass(frozen=True)
class CellSummary:
    """All trials of one parameter cell, summarised.

    Attributes:
        cell: kind + parameters (the grouping key, seed excluded).
        kind: trial kind of the cell.
        n_trials: trials registered for the cell.
        n_done: completed trials.
        n_failed: permanently failed trials.
        metrics: metric name -> :class:`MetricSummary`.
    """

    cell: dict[str, Any]
    kind: str
    n_trials: int
    n_done: int
    n_failed: int
    metrics: dict[str, MetricSummary]

    @property
    def label(self) -> str:
        """Compact human-readable cell identity."""
        parts = [
            f"{k}={v}" for k, v in sorted(self.cell.items()) if k != "kind"
        ]
        return f"{self.kind}({', '.join(parts)})"


def bootstrap_ci(
    values: Any,
    *,
    alpha: float = 0.05,
    n_boot: int = 400,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded percentile-bootstrap interval for the mean.

    Args:
        values: the sample (1-D, finite).
        alpha: two-sided miss probability (0.05 -> a 95% interval).
        n_boot: bootstrap resamples.
        seed: RNG seed — the interval is deterministic per campaign.

    Returns:
        ``(lo, hi)``; a single-point sample collapses to that point.

    Raises:
        SweepError: on an empty sample or invalid alpha.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise SweepError("bootstrap_ci needs at least one value")
    if not 0.0 < alpha < 1.0:
        raise SweepError("alpha must be in (0, 1)")
    if data.size == 1:
        return float(data[0]), float(data[0])
    rng = np.random.default_rng(seed)
    samples = rng.choice(data, size=(n_boot, data.size), replace=True)
    means = samples.mean(axis=1)
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


def summarise_metric(
    values: Any, *, n_boot: int = 400, seed: int = 0
) -> MetricSummary:
    """Mean / std / bootstrap interval of one metric sample."""
    data = np.asarray(values, dtype=float)
    data = data[np.isfinite(data)]
    if data.size == 0:
        raise SweepError("summarise_metric needs at least one finite value")
    lo, hi = bootstrap_ci(data, n_boot=n_boot, seed=seed)
    std = float(data.std(ddof=1)) if data.size > 1 else 0.0
    return MetricSummary(
        mean=float(data.mean()), std=std, lo=lo, hi=hi, n=int(data.size)
    )


def aggregate_campaign(
    store: ResultStore, name: str, *, n_boot: int = 400
) -> list[CellSummary]:
    """Group a campaign's trials into cells and summarise every metric.

    The bootstrap seed of each interval is derived from the cell and
    metric name, so aggregate output is deterministic and — crucially
    for the resume test — independent of trial completion order.
    """
    campaign_id = store.campaign_id(name)
    groups: dict[str, list] = {}
    for row in store.trial_rows(campaign_id):
        groups.setdefault(canonical_json(row.cell), []).append(row)
    cells: list[CellSummary] = []
    for cell_json in sorted(groups):
        rows = groups[cell_json]
        cell = json.loads(cell_json)
        done = [r for r in rows if r.status == TRIAL_DONE]
        metric_names = sorted({m for r in done for m in r.metrics})
        metrics: dict[str, MetricSummary] = {}
        for metric in metric_names:
            values = [
                r.metrics[metric] for r in done if metric in r.metrics
            ]
            boot_seed = int.from_bytes(
                (cell_json + metric).encode("utf-8")[-4:], "little"
            )
            metrics[metric] = summarise_metric(
                values, n_boot=n_boot, seed=boot_seed
            )
        cells.append(
            CellSummary(
                cell=cell,
                kind=str(cell.get("kind", rows[0].kind)),
                n_trials=len(rows),
                n_done=len(done),
                n_failed=sum(1 for r in rows if r.status == TRIAL_FAILED),
                metrics=metrics,
            )
        )
    return cells


# -- generator scoring --------------------------------------------------------


def score_generators(cells: list[CellSummary]) -> list[dict[str, Any]]:
    """Rank generator cells against the campaign's pipeline ensemble.

    The empirical reference is the mean over pipeline cells of the
    alpha exponent and fitted Waxman L; each generator configuration's
    score is the summed relative distance of its own alpha and implied
    L from that reference (lower is better).  A configuration missing a
    component is charged :data:`MISSING_COMPONENT_PENALTY` for it, so
    un-comparable configs rank last instead of disappearing.

    Returns an empty list when the campaign has no pipeline reference
    or no generator cells.
    """
    reference: dict[str, float] = {}
    for metric in ("alpha_exponent", "waxman_l_miles"):
        values = [
            c.metrics[metric].mean
            for c in cells
            if c.kind == "pipeline" and metric in c.metrics
        ]
        if values:
            reference[metric] = float(np.mean(values))
    generator_cells = [c for c in cells if c.kind == "generator"]
    if not reference or not generator_cells:
        return []
    scored = []
    for cell in generator_cells:
        components: dict[str, float] = {}
        for metric, target in reference.items():
            summary = cell.metrics.get(metric)
            if summary is None or not math.isfinite(summary.mean):
                components[metric] = MISSING_COMPONENT_PENALTY
            else:
                scale = max(abs(target), 1e-9)
                components[metric] = abs(summary.mean - target) / scale
        scored.append(
            {
                "cell": cell.cell,
                "label": cell.label,
                "score": float(sum(components.values())),
                "components": components,
                "reference": reference,
            }
        )
    scored.sort(key=lambda entry: entry["score"])
    for rank, entry in enumerate(scored, start=1):
        entry["rank"] = rank
    return scored


# -- the sweep report document ------------------------------------------------


def build_sweep_report(
    store: ResultStore, name: str, *, n_boot: int = 400
) -> dict[str, Any]:
    """Assemble the JSON sweep report for one campaign."""
    campaign_id = store.campaign_id(name)
    spec = store.load_spec(name)
    cells = aggregate_campaign(store, name, n_boot=n_boot)
    return {
        "schema": SWEEP_REPORT_SCHEMA,
        "version": SWEEP_REPORT_VERSION,
        "campaign": name,
        "created_unix": time.time(),
        "spec_digest": spec.digest(),
        "counts": store.counts(campaign_id),
        "cells": [
            {
                "cell": c.cell,
                "label": c.label,
                "kind": c.kind,
                "n_trials": c.n_trials,
                "n_done": c.n_done,
                "n_failed": c.n_failed,
                "metrics": {
                    metric: {
                        "mean": s.mean,
                        "std": s.std,
                        "lo": s.lo,
                        "hi": s.hi,
                        "n": s.n,
                    }
                    for metric, s in sorted(c.metrics.items())
                },
            }
            for c in cells
        ],
        "generator_scores": score_generators(cells),
    }


def validate_sweep_report(payload: Any) -> dict[str, Any]:
    """Check a parsed sweep report document.

    Raises:
        SweepError: when the document is not a sweep report.
    """
    if not isinstance(payload, Mapping):
        raise SweepError("sweep report must be a JSON object")
    if payload.get("schema") != SWEEP_REPORT_SCHEMA:
        raise SweepError(
            f"not a sweep report (schema {payload.get('schema')!r})"
        )
    if payload.get("version") != SWEEP_REPORT_VERSION:
        raise SweepError(
            f"unsupported sweep report version {payload.get('version')!r}"
        )
    for field_name in ("campaign", "counts", "cells"):
        if field_name not in payload:
            raise SweepError(f"sweep report is missing {field_name!r}")
    if not isinstance(payload["cells"], list):
        raise SweepError("sweep report cells must be a list")
    return dict(payload)


def write_sweep_report(payload: Mapping[str, Any], path: str | Path) -> Path:
    """Write a sweep report document to disk."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def load_sweep_report(path: str | Path) -> dict[str, Any]:
    """Read and validate a sweep report document.

    Raises:
        SweepError: on unreadable files, bad JSON, or wrong schema.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SweepError(f"cannot read sweep report {path}: {exc}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SweepError(f"sweep report {path} is not valid JSON: {exc}")
    return validate_sweep_report(payload)


def render_sweep_report(payload: Mapping[str, Any]) -> str:
    """A terminal-friendly rendering of a sweep report."""
    lines = [f"campaign {payload['campaign']}"]
    counts = payload.get("counts", {})
    lines.append(
        "  trials: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    for cell in payload.get("cells", []):
        lines.append(
            f"  {cell['label']}  "
            f"[done {cell['n_done']}/{cell['n_trials']}"
            + (f", failed {cell['n_failed']}" if cell["n_failed"] else "")
            + "]"
        )
        metrics = cell.get("metrics", {})
        ordered = [m for m in HEADLINE_METRICS if m in metrics] + [
            m for m in sorted(metrics) if m not in HEADLINE_METRICS
        ]
        for metric in ordered:
            s = metrics[metric]
            lines.append(
                f"    {metric:<20} {s['mean']:>10.4f}  "
                f"ci95 [{s['lo']:.4f}, {s['hi']:.4f}]  n={s['n']}"
            )
    scores = payload.get("generator_scores", [])
    if scores:
        lines.append("  generator ranking (distance to empirical cells):")
        for entry in scores:
            lines.append(
                f"    #{entry['rank']} {entry['label']}  "
                f"score={entry['score']:.3f}"
            )
    return "\n".join(lines)


def diff_sweep_reports(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    *,
    threshold: float = 1.0,
) -> ReportDiff:
    """Compare two sweep reports cell by cell.

    A metric *regresses* when its mean moved by more than ``threshold``
    times the wider of the two bootstrap half-widths — i.e. the shift
    is large relative to the campaigns' own seed-to-seed uncertainty.
    Appearing/disappearing cells or metrics, and changed trial counts,
    are drift.

    Raises:
        SweepError: on a non-positive threshold.
    """
    if threshold <= 0:
        raise SweepError("threshold must be positive")
    regressions: list[str] = []
    drifts: list[str] = []
    notes: list[str] = []

    def cells_by_key(payload: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
        return {
            canonical_json(cell["cell"]): cell
            for cell in payload.get("cells", [])
        }

    old_cells = cells_by_key(old)
    new_cells = cells_by_key(new)
    for key in sorted(old_cells.keys() - new_cells.keys()):
        drifts.append(f"cell {old_cells[key]['label']!r} disappeared")
    for key in sorted(new_cells.keys() - old_cells.keys()):
        drifts.append(f"cell {new_cells[key]['label']!r} appeared")
    shifts = 0
    for key in sorted(old_cells.keys() & new_cells.keys()):
        cell_old, cell_new = old_cells[key], new_cells[key]
        label = cell_new["label"]
        if cell_old["n_done"] != cell_new["n_done"]:
            drifts.append(
                f"cell {label!r} completed trials "
                f"{cell_old['n_done']} -> {cell_new['n_done']}"
            )
        metrics_old = cell_old.get("metrics", {})
        metrics_new = cell_new.get("metrics", {})
        for metric in sorted(metrics_old.keys() - metrics_new.keys()):
            drifts.append(f"cell {label!r} lost metric {metric!r}")
        for metric in sorted(metrics_new.keys() - metrics_old.keys()):
            drifts.append(f"cell {label!r} gained metric {metric!r}")
        for metric in sorted(metrics_old.keys() & metrics_new.keys()):
            s_old, s_new = metrics_old[metric], metrics_new[metric]
            shift = abs(s_new["mean"] - s_old["mean"])
            half_old = (s_old["hi"] - s_old["lo"]) / 2.0
            half_new = (s_new["hi"] - s_new["lo"]) / 2.0
            tolerance = threshold * max(half_old, half_new, 1e-12)
            if shift > tolerance:
                shifts += 1
                regressions.append(
                    f"cell {label!r} metric {metric!r} shifted "
                    f"{s_old['mean']:.4f} -> {s_new['mean']:.4f} "
                    f"(|shift| {shift:.4f} > {tolerance:.4f} "
                    f"= {threshold:g} x CI half-width)"
                )
    notes.append(
        f"compared {len(old_cells.keys() & new_cells.keys())} shared cells; "
        f"{shifts} interval-shift regression(s)"
    )
    return ReportDiff(
        regressions=tuple(regressions),
        drifts=tuple(drifts),
        notes=tuple(notes),
    )
