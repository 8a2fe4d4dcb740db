"""Benchmark: per-batch index apply, per-AS table, publish freshness.

Streaming ingestion turns measurement arrival into servable freshness.
Each batch patches the dataset and wraps it in a new serving index
(``SnapshotIndex.apply_delta``), whose lookup structures and per-AS
table are built on first read: the table behind ``/as`` and the
analytics once per generation that needs it.  Both costs grow with
snapshot size, so the bench tiles the small-scenario snapshot 12x
(~35k nodes, ~900 ASes — the shape of the default scenario, without
its multi-minute pipeline) and reports:

- **apply** — mean ``SnapshotIndex.apply_delta`` per batch (the
  dataset patch; nothing reads the index's lookup structures);
- **AS table** — mean first ``SnapshotIndex.as_table()`` call on each
  post-batch index.

The chained index must agree bit-for-bit on the final content hash
with a from-scratch index over the same patched dataset.  A second
stage runs a real :class:`~repro.ingest.runner.Ingester` at
publish-every-batch cadence and reports end-to-end freshness (arrival
stamp → verified generation on disk) as a p99, with the mean
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


def test_bench_ingest_apply_and_as_table(dataset, tmp_path, monkeypatch):
    stream = DeltaStream(dataset, np.random.default_rng(31))
    batches = [
        stream.next_batch(**BATCH_SHAPE) for _ in range(N_BATCHES)
    ]

    # Apply each batch to the live index, then build the per-AS table
    # of the new generation.
    index = SnapshotIndex(dataset)
    apply_s = []
    as_table_s = []
    for batch in batches:
        start = time.perf_counter()
        index = index.apply_delta(batch)
        apply_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        index.as_table()
        as_table_s.append(time.perf_counter() - start)

    # The chained index equals a from-scratch one over the same data.
    current = dataset
    for batch in batches:
        current, _ = patch_dataset(current, batch)
    assert index.snapshot_hash == SnapshotIndex(current).snapshot_hash

    mean_apply_ms = float(np.mean(apply_s)) * 1e3
    mean_as_table_ms = float(np.mean(as_table_s)) * 1e3

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
        "scenario": "ingest-apply-and-as-table",
        "n_nodes_base": dataset.n_nodes,
        "n_batches": N_BATCHES,
        "batch_shape": BATCH_SHAPE,
        "apply_ms": [round(s * 1e3, 3) for s in apply_s],
        "as_table_ms": [round(s * 1e3, 3) for s in as_table_s],
        "mean_apply_ms": round(mean_apply_ms, 3),
        "mean_as_table_ms": round(mean_as_table_ms, 3),
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
            "apply_ms": (mean_apply_ms, "lower"),
            "as_table_ms": (mean_as_table_ms, "lower"),
            "freshness_p99_s": (p99, "lower"),
            "publish_ms": (mean_publish_ms, "lower"),
            "dataset_digest_ms": (mean_digest_ms, "lower"),
        },
    )
    print(
        f"apply_delta: {mean_apply_ms:.1f}ms/batch; per-AS table "
        f"{mean_as_table_ms:.1f}ms/generation (identical final hash)\n"
        f"publish-per-batch freshness: p50 {p50 * 1e3:.0f}ms, "
        f"p99 {p99 * 1e3:.0f}ms over {N_FRESHNESS_BATCHES} batches\n"
        f"publish {mean_publish_ms:.1f}ms/generation, "
        f"{mean_digest_ms:.2f}ms per dataset_digest\n"
    )
