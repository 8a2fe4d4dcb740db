"""Benchmark: incremental analytics update vs from-scratch recompute.

A from-scratch recompute of the paper's headline metrics counts each
region's node pairs over its *distinct* locations
(:func:`~repro.core.distance.pair_counts`).  On a fresh snapshot the
mappers place nodes at few points, so that is cheap and a recompute
costs about as much as an incremental update.  A delta stream jitters
every added and moved node to a new point, though, so the distinct
points, and with them the recompute, grow with every batch, while the
incremental :class:`~repro.analytics.engine.AnalyticsEngine` keeps
paying only for the rows a delta touched.  The live ingest path runs
hundreds of batches per generation series, so the bench measures that
regime: one delta stream over the small-scenario snapshot, driven
through both paths

- **incremental** — ``engine.apply`` + ``engine.metrics()`` per
  generation, the live observer's per-publish work;
- **recompute** — a fresh ``AnalyticsEngine`` seeded from each
  successive post-batch dataset plus its ``metrics()``, i.e. what a
  per-generation batch job would pay.

Index patching and each generation's memoised per-AS table are built
before either timed region, so both sides receive them for free.

Acceptance: over the 8 batches that follow an untimed 100-batch
warm-up, the mean incremental update must be at least **3x** faster
than the mean recompute, and the two paths must agree on the final
maintained state bit for bit (integer histograms and tallies) so the
speedup can never come from skipped or approximated work.  The same
ratio over the stream's first 8 batches (fresh snapshot) is recorded
as an extra, ungated headline so the short-stream result stays
visible.

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
from repro.measure.stream import DeltaStream
from repro.serve import SnapshotIndex

N_BATCHES = 8
#: Batches applied (incrementally, untimed) before the gated timing.
WARMUP_BATCHES = 100
MIN_SPEEDUP = 3.0
#: Timed-batch shape: the bench_ingest arrival mix.
BATCH_SHAPE = dict(n_adds=8, n_links=6, n_moves=4, n_remaps=2)


@pytest.fixture(scope="module")
def pipeline():
    return run_pipeline(small_scenario())


def _generations(stream, index, n):
    """``n`` batches with their post-batch indexes, per-AS tables built."""
    generations = []
    for _ in range(n):
        batch = stream.next_batch(**BATCH_SHAPE)
        index = index.apply_delta(batch)
        index.as_table()
        generations.append((batch, index))
    return generations


def _time_both_paths(engine, generations, field):
    """Per-generation seconds of both paths, after checking they agree."""
    incremental_s = []
    for batch, gen_index in generations:
        start = time.perf_counter()
        engine.apply(batch, gen_index)
        metrics = engine.metrics()
        incremental_s.append(time.perf_counter() - start)

    recompute_s = []
    fresh = None
    for _batch, gen_index in generations:
        start = time.perf_counter()
        fresh = AnalyticsEngine(
            gen_index.dataset, population=field, index=gen_index
        )
        fresh_metrics = fresh.metrics()
        recompute_s.append(time.perf_counter() - start)

    # Differential guarantee: the fast path maintained exactly the
    # state the slow path just rebuilt.
    assert fresh is not None
    for name, state in engine.regions.items():
        other = fresh.regions[name]
        assert np.array_equal(state.pair_counts, other.pair_counts)
        assert np.array_equal(state.link_counts, other.link_counts)
        assert np.array_equal(state.occupancy, other.occupancy)
    assert set(metrics) == set(fresh_metrics)
    for name, value in metrics.items():
        assert value == pytest.approx(fresh_metrics[name], rel=1e-9)
    return incremental_s, recompute_s, len(metrics)


def test_bench_analytics_incremental_vs_recompute(pipeline):
    dataset = pipeline.dataset("IxMapper", "Skitter")
    field = pipeline.world.field
    stream = DeltaStream(dataset, np.random.default_rng(67))
    index = SnapshotIndex(dataset)
    engine = AnalyticsEngine(dataset, population=field, index=index)

    # The stream's first batches: the fresh-snapshot regime (ungated).
    generations = _generations(stream, index, N_BATCHES)
    fresh_incremental_s, fresh_recompute_s, _ = _time_both_paths(
        engine, generations, field
    )
    index = generations[-1][1]

    # Warm-up: advance the snapshot and the engine, untimed.
    for _ in range(WARMUP_BATCHES - N_BATCHES):
        batch = stream.next_batch(**BATCH_SHAPE)
        index = index.apply_delta(batch)
        engine.apply(batch, index)

    generations = _generations(stream, index, N_BATCHES)
    incremental_s, recompute_s, n_metrics = _time_both_paths(
        engine, generations, field
    )

    mean_incremental = float(np.mean(incremental_s))
    mean_recompute = float(np.mean(recompute_s))
    speedup = mean_recompute / mean_incremental
    fresh_speedup = float(np.mean(fresh_recompute_s)) / float(
        np.mean(fresh_incremental_s)
    )
    assert speedup >= MIN_SPEEDUP, (
        f"incremental analytics only {speedup:.1f}x faster than recompute "
        f"({mean_incremental * 1e3:.1f}ms vs {mean_recompute * 1e3:.1f}ms)"
    )

    payload = {
        "scenario": "analytics-incremental-vs-recompute",
        "n_nodes_base": dataset.n_nodes,
        "n_nodes_timed": int(generations[-1][1].dataset.n_nodes),
        "warmup_batches": WARMUP_BATCHES,
        "n_batches": N_BATCHES,
        "batch_shape": BATCH_SHAPE,
        "incremental_ms": [round(s * 1e3, 3) for s in incremental_s],
        "recompute_ms": [round(s * 1e3, 3) for s in recompute_s],
        "mean_incremental_ms": round(mean_incremental * 1e3, 3),
        "mean_recompute_ms": round(mean_recompute * 1e3, 3),
        "speedup": round(speedup, 2),
        "fresh_incremental_ms": [
            round(s * 1e3, 3) for s in fresh_incremental_s
        ],
        "fresh_recompute_ms": [round(s * 1e3, 3) for s in fresh_recompute_s],
        "fresh_speedup": round(fresh_speedup, 2),
        "state_bit_identical": True,
        "n_metrics": n_metrics,
    }
    record_bench(
        "analytics",
        payload,
        headline={
            "incremental_speedup_vs_recompute": (speedup, "higher"),
            "incremental_update_ms": (
                round(mean_incremental * 1e3, 3), "lower"
            ),
            "fresh_snapshot_speedup_vs_recompute": (fresh_speedup, "higher"),
        },
    )
    print(
        f"incremental metric update after {WARMUP_BATCHES} batches: "
        f"{mean_incremental * 1e3:.1f}ms/gen vs from-scratch recompute "
        f"{mean_recompute * 1e3:.1f}ms ({speedup:.1f}x, bit-identical "
        f"state, {n_metrics} metrics/gen); fresh snapshot "
        f"{fresh_speedup:.1f}x\n"
    )
