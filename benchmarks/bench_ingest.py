"""Benchmark: incremental snapshot patching vs full index rebuild.

Streaming ingestion's reason to exist is that patching the serving
index with one delta batch is much cheaper than rebuilding it from the
grown dataset — that is what turns measurement arrival into servable
freshness in well under a second.  Incremental patching is O(delta +
dirty ASes) while a rebuild is O(nodes + ASes), so the gap is a
function of snapshot size; the bench therefore tiles the
small-scenario snapshot 12x (~35k nodes, ~900 ASes — the shape of the
default scenario, without its multi-minute pipeline) and drives the
same delta stream through both paths:

- **incremental** — ``SnapshotIndex.apply_delta`` per batch (includes
  the dataset patch itself);
- **rebuild** — ``SnapshotIndex(dataset)`` from scratch over each
  successive post-batch dataset (the dataset patch is *excluded* from
  the timed region, which is generous to the rebuild side).

Acceptance: the mean incremental patch must be at least **5x** faster
than the mean full rebuild, and both paths must agree bit-for-bit on
the final content hash (the differential guarantee, re-checked here so
the speedup can never come from skipped work).  A second stage runs a
real :class:`~repro.ingest.runner.Ingester` at publish-every-batch
cadence and reports end-to-end freshness (arrival stamp → verified
generation on disk) as a p99, with the mean
:meth:`~repro.ingest.publisher.SnapshotPublisher.publish` and
:func:`~repro.obs.report.dataset_digest` times inside it — the publish
layer, so ``repro bench history`` trends where freshness goes.

Machine-readable results land in ``BENCH_ingest.json`` at the repo
root via :mod:`record`.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from record import record_bench

from repro.config import small_scenario
from repro.datasets.mapped import MappedDataset
from repro.datasets.pipeline import run_pipeline
from repro.ingest import Ingester, patch_dataset, publisher
from repro.measure.stream import DeltaStream
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.serve import SnapshotIndex

N_COPIES = 12
N_BATCHES = 10
N_FRESHNESS_BATCHES = 20
MIN_SPEEDUP = 5.0
#: Timed-batch shape: 8 new interfaces, 6 new adjacencies, 4
#: geolocation refinements, 2 AS remaps per arrival.
BATCH_SHAPE = dict(n_adds=8, n_links=6, n_moves=4, n_remaps=2)


def _tiled(dataset: MappedDataset, copies: int) -> MappedDataset:
    """Tile a snapshot ``copies`` times with disjoint addresses, AS
    numbers, and slightly shifted coordinates — default-scenario size
    from the small scenario's seconds-long pipeline."""
    span = int(dataset.addresses.max()) + 1000
    n = dataset.n_nodes
    parts = range(copies)
    return MappedDataset(
        label=f"{dataset.label}-x{copies}",
        kind=dataset.kind,
        addresses=np.concatenate(
            [dataset.addresses + i * span for i in parts]
        ),
        lats=np.concatenate(
            [np.clip(dataset.lats + 0.01 * i, -90.0, 90.0) for i in parts]
        ),
        lons=np.concatenate(
            [np.clip(dataset.lons + 0.01 * i, -180.0, 180.0) for i in parts]
        ),
        asns=np.concatenate(
            [
                np.where(dataset.asns > 0, dataset.asns + 10_000 * i,
                         dataset.asns)
                for i in parts
            ]
        ),
        links=np.concatenate([dataset.links + i * n for i in parts]),
    )


@pytest.fixture(scope="module")
def dataset():
    small = run_pipeline(small_scenario()).dataset("IxMapper", "Skitter")
    return _tiled(small, N_COPIES)


def _timed(owner, name, monkeypatch) -> list[float]:
    """Wrap ``owner.name`` so each call's seconds land in the result."""
    seconds: list[float] = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - start)

    monkeypatch.setattr(owner, name, wrapper)
    return seconds


def test_bench_ingest_incremental_vs_rebuild(
    dataset, tmp_path, record_artifact, monkeypatch
):
    stream = DeltaStream(dataset, np.random.default_rng(31))
    batches = [
        stream.next_batch(**BATCH_SHAPE) for _ in range(N_BATCHES)
    ]

    # Incremental: patch the live index batch by batch.
    index = SnapshotIndex(dataset)
    incremental_s = []
    for batch in batches:
        start = time.perf_counter()
        index = index.apply_delta(batch)
        incremental_s.append(time.perf_counter() - start)

    # Rebuild: from-scratch index over each successive dataset (the
    # dataset patch itself is excluded — generous to this side).
    current = dataset
    rebuild_s = []
    fresh = None
    for batch in batches:
        current, _ = patch_dataset(current, batch)
        start = time.perf_counter()
        fresh = SnapshotIndex(current)
        rebuild_s.append(time.perf_counter() - start)

    # The speedup must never come from skipped work.
    assert fresh is not None
    assert index.snapshot_hash == fresh.snapshot_hash

    mean_incremental = float(np.mean(incremental_s))
    mean_rebuild = float(np.mean(rebuild_s))
    speedup = mean_rebuild / mean_incremental
    assert speedup >= MIN_SPEEDUP, (
        f"incremental patch only {speedup:.1f}x faster than rebuild "
        f"({mean_incremental * 1e3:.1f}ms vs {mean_rebuild * 1e3:.1f}ms)"
    )

    # End-to-end freshness through a real ingester, publish-per-batch,
    # with the publish layer and its digests timed.
    publish_s = _timed(publisher.SnapshotPublisher, "publish", monkeypatch)
    digest_s = _timed(publisher, "dataset_digest", monkeypatch)
    registry = MetricsRegistry()
    freshness_s = []
    with use_metrics(registry):
        stream = DeltaStream(dataset, np.random.default_rng(32))
        with Ingester(
            dataset, tmp_path / "ingest", publish_batches=1
        ) as ingester:
            for _ in range(N_FRESHNESS_BATCHES):
                batch = stream.next_batch().stamped(time.time())
                ingester.submit(batch)  # publishes before returning
                freshness_s.append(time.time() - batch.created_unix)
    histogram = registry.histogram("ingest.freshness_s")
    assert histogram.count == N_FRESHNESS_BATCHES
    p99 = float(np.percentile(freshness_s, 99))
    p50 = float(np.percentile(freshness_s, 50))
    assert len(publish_s) == N_FRESHNESS_BATCHES
    mean_publish_ms = float(np.mean(publish_s)) * 1e3
    mean_digest_ms = float(np.mean(digest_s)) * 1e3

    payload = {
        "scenario": "ingest-incremental-vs-rebuild",
        "n_nodes_base": dataset.n_nodes,
        "n_batches": N_BATCHES,
        "batch_shape": BATCH_SHAPE,
        "incremental_ms": [round(s * 1e3, 3) for s in incremental_s],
        "rebuild_ms": [round(s * 1e3, 3) for s in rebuild_s],
        "mean_incremental_ms": round(mean_incremental * 1e3, 3),
        "mean_rebuild_ms": round(mean_rebuild * 1e3, 3),
        "speedup": round(speedup, 2),
        "final_hash_match": True,
        "n_freshness_batches": N_FRESHNESS_BATCHES,
        "freshness_p50_s": round(p50, 4),
        "freshness_p99_s": round(p99, 4),
        "mean_publish_ms": round(mean_publish_ms, 3),
        "mean_dataset_digest_ms": round(mean_digest_ms, 3),
        "digests_per_publish": len(digest_s) / len(publish_s),
    }
    record_bench(
        "ingest",
        payload,
        headline={
            "incremental_speedup_vs_rebuild": (speedup, "higher"),
            "freshness_p99_s": (p99, "lower"),
            "publish_ms": (mean_publish_ms, "lower"),
            "dataset_digest_ms": (mean_digest_ms, "lower"),
        },
    )
    record_artifact(
        "ingest_speedup",
        (
            f"incremental patch: {mean_incremental * 1e3:.1f}ms/batch vs "
            f"full rebuild {mean_rebuild * 1e3:.1f}ms "
            f"({speedup:.1f}x, identical final hash)\n"
            f"publish-per-batch freshness: p50 {p50 * 1e3:.0f}ms, "
            f"p99 {p99 * 1e3:.0f}ms over {N_FRESHNESS_BATCHES} batches\n"
            f"publish {mean_publish_ms:.1f}ms/generation, "
            f"{mean_digest_ms:.2f}ms per dataset_digest\n"
        ),
    )
