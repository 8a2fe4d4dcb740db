"""Benchmark: per-generation analytics cost on a fresh and a streamed snapshot.

Each published generation's metrics are recomputed from scratch by
:class:`~repro.analytics.engine.AnalyticsEngine` with the core
instruments.  The dominant term is the per-region pair count, which is
taken over *distinct* points (:func:`~repro.core.distance.pair_counts`),
so the cost follows the snapshot's distinct-point count.  A delta
stream places every added and moved node at a point the snapshot
already holds, as a city-granularity mapper would, so that count, and
with it the recompute, must not grow with the stream.  The bench
drives one delta stream over the small-scenario snapshot and times
``AnalyticsEngine(dataset, index=index).metrics()`` per generation

- on the stream's first batches (the fresh snapshot), and
- after :data:`STREAM_BATCHES` batches (the live path's long-run
  regime).

Index patching and each generation's memoised per-AS table are built
before the timed region, as the ingester's publish path builds them.

Acceptance (deterministic): every point of the timed snapshot is a
point of the base snapshot.  The count may shrink, since a move can
empty a point that held one node, but never grow.  The timings are
recorded, not gated.

Machine-readable results land in ``BENCH_analytics.json`` at the repo
root via :mod:`record`.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from record import record_bench

from repro.analytics import AnalyticsEngine
from repro.config import small_scenario
from repro.datasets.pipeline import run_pipeline
from repro.geo.coords import distinct_points
from repro.measure.stream import DeltaStream
from repro.serve import SnapshotIndex

N_BATCHES = 8
#: Batches streamed before the second timed window.
STREAM_BATCHES = 700
#: Batch shape: the bench_ingest arrival mix.
BATCH_SHAPE = dict(n_adds=8, n_links=6, n_moves=4, n_remaps=2)


@pytest.fixture(scope="module")
def pipeline():
    return run_pipeline(small_scenario())


def _points(dataset) -> set[tuple[float, float]]:
    plats, plons, _, _ = distinct_points(dataset.lats, dataset.lons)
    return set(zip(plats.tolist(), plons.tolist()))


def _time_generations(stream, index, n):
    """Seconds of ``metrics()`` over the next ``n`` generations."""
    seconds = []
    for _ in range(n):
        index = index.apply_delta(stream.next_batch(**BATCH_SHAPE))
        index.as_table()
        start = time.perf_counter()
        metrics = AnalyticsEngine(index.dataset, index=index).metrics()
        seconds.append(time.perf_counter() - start)
    return seconds, index, len(metrics)


def test_bench_analytics_per_generation(pipeline):
    dataset = pipeline.dataset("IxMapper", "Skitter")
    stream = DeltaStream(dataset, np.random.default_rng(67))
    index = SnapshotIndex(dataset)

    fresh_s, index, _ = _time_generations(stream, index, N_BATCHES)
    for _ in range(STREAM_BATCHES - N_BATCHES):
        index = index.apply_delta(stream.next_batch(**BATCH_SHAPE))
    streamed_s, index, n_metrics = _time_generations(
        stream, index, N_BATCHES
    )

    base_points = _points(dataset)
    timed_points = _points(index.dataset)
    off_base = timed_points - base_points
    assert not off_base, (
        f"{len(off_base)} of {len(timed_points)} distinct points after "
        f"{STREAM_BATCHES} batches are not in the base snapshot"
    )

    mean_fresh = float(np.mean(fresh_s))
    mean_streamed = float(np.mean(streamed_s))
    payload = {
        "scenario": "analytics-per-generation-recompute",
        "n_nodes_base": dataset.n_nodes,
        "n_nodes_timed": int(index.dataset.n_nodes),
        "distinct_points_base": len(base_points),
        "distinct_points_timed": len(timed_points),
        "stream_batches": STREAM_BATCHES,
        "n_batches": N_BATCHES,
        "batch_shape": BATCH_SHAPE,
        "fresh_metrics_ms": [round(s * 1e3, 3) for s in fresh_s],
        "streamed_metrics_ms": [round(s * 1e3, 3) for s in streamed_s],
        "mean_fresh_metrics_ms": round(mean_fresh * 1e3, 3),
        "mean_streamed_metrics_ms": round(mean_streamed * 1e3, 3),
        "n_metrics": n_metrics,
    }
    record_bench(
        "analytics",
        payload,
        headline={
            "fresh_metrics_ms": (round(mean_fresh * 1e3, 3), "lower"),
            "streamed_metrics_ms": (round(mean_streamed * 1e3, 3), "lower"),
        },
    )
    print(
        f"per-generation metrics: {mean_fresh * 1e3:.1f}ms on the fresh "
        f"snapshot, {mean_streamed * 1e3:.1f}ms after {STREAM_BATCHES} "
        f"batches ({dataset.n_nodes} -> {index.dataset.n_nodes} nodes, "
        f"{len(timed_points)} distinct points, {n_metrics} metrics/gen)\n"
    )
