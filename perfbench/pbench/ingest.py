"""The ``ingest`` workload: the write path, closed loop, one producer.

The 4x-tiled small snapshot of the seed goes through an ``Ingester``
with analytics attached, in a ``pbench.ingest_worker`` process (so its
peak RSS is the write path's alone).

- ``setup_s``: ``Ingester`` built (snapshot load, index build, WAL
  open) plus analytics attached (engine seeded), median of the repeats;
- ``latency_p50_ms`` / ``latency_p90_ms``: freshness, from a batch's
  arrival stamp until it is part of a verified generation on disk;
- ``throughput_per_s``: batches completed per second;
- ``peak_rss_mb``: the worker's peak RSS, before the checks run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from pbench import common, inputs, spans
from pbench.common import BenchError, Outcome

TILES = 4


@dataclass
class Run:
    outcome: Outcome
    trace_file: Path | None = None


def run(workload: str, seed: int, seconds: float, traced: bool) -> Run:
    work = common.WORK / "ingest"
    base, _ = inputs.snapshot_file(TILES, common.WORK / "snapshots")
    trace_file = work / "trace-ingest.json" if traced else None
    cmd = [sys.executable, "-m", "pbench.ingest_worker", "--base", str(base),
           "--work", str(work), "--seed", str(seed), "--seconds", str(seconds)]
    if trace_file is not None:
        trace_file.unlink(missing_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    env = common.child_env(extra_paths=(common.PERFBENCH,))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=160)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"ingest worker failed: {proc.stderr[-800:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    outcome = Outcome(attempted=report["batches"])
    for problem in report["problems"]:
        outcome.fail(problem)
    freshness_ms = [v * 1e3 for v in report["freshness_s"]]
    outcome.put("setup_s", common.median(report["setups"]), "s")
    outcome.put("latency_p50_ms", common.median(freshness_ms), "ms")
    outcome.put("latency_p90_ms", common.windowed_percentile(freshness_ms), "ms")
    outcome.put("throughput_per_s", report["batches"] / report["loop_s"], "1/s")
    outcome.put("peak_rss_mb", report["rss_mb"], "MB")
    print(f"ingest: {report['batches']} batches in {report['loop_s']:.2f}s, setups "
          f"{[round(s, 3) for s in report['setups']]}", file=sys.stderr)
    return Run(outcome, trace_file)


def _within(spans_by_id: dict[int, spans.Span], span: spans.Span, name: str) -> bool:
    """Whether ``span`` has an ancestor called ``name``."""
    parent = spans_by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = spans_by_id.get(parent.parent)
    return False


def layer_metrics(workload: str, out: Run) -> dict[str, float]:
    _, recorded, _ = spans.load(out.trace_file)
    summary = spans.Summary(recorded)
    by_id = {s.id: s for s in recorded}
    top = defaultdict(list)
    for span in recorded:
        if span.parent == 0:
            top[span.name].append(span.duration)
    publishes = summary.calls("ingest.publish")
    digests_in_publish = sum(
        1 for s in summary.by_name.get("obs.dataset_digest", ())
        if _within(by_id, s, "ingest.publish")
    )
    return {
        "ingest.wal.append_ms": summary.mean_ms("ingest.wal.append"),
        "serve.index.apply_delta_ms": summary.mean_ms("serve.index.apply_delta"),
        "analytics.apply_ms": summary.mean_ms("analytics.apply"),
        "analytics.publish_ms": summary.mean_ms("analytics.publish"),
        "analytics.store.record_ms": summary.mean_ms("analytics.store.record"),
        "ingest.publish_ms": summary.mean_ms("ingest.publish"),
        "obs.dataset_digest_ms": summary.mean_ms("obs.dataset_digest"),
        "ingest.digests_per_publish": digests_in_publish / publishes if publishes else 0.0,
        "datasets.save_npz_ms": summary.mean_ms("datasets.save_npz"),
        "datasets.load_npz_ms": summary.mean_ms("datasets.load_npz"),
        "analytics.seed_s": common.mean(top["analytics.seed"]),
        "serve.index.build_s": common.mean(top["serve.index.build"]),
    }
