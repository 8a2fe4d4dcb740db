"""Streaming ingestion: delta batches -> WAL -> patched snapshots.

The continuously-updatable serving path: measurement deltas
(:mod:`repro.ingest.deltas`) are journaled to a crash-safe write-ahead
log (:mod:`repro.ingest.wal`), applied to mapped datasets
(:mod:`repro.ingest.apply`), turned into a serving index rebuilt from
the patched dataset (:meth:`repro.serve.index.SnapshotIndex.apply_delta`),
and published as verified generation snapshots that hot-reload the
cluster (:mod:`repro.ingest.publisher`, :mod:`repro.ingest.runner`).
"""

from repro.ingest.apply import PatchInfo, patch_dataset
from repro.ingest.deltas import (
    DeltaBatch,
    delta_digest,
    delta_from_bytes,
    delta_to_bytes,
    load_delta,
    save_delta,
)
from repro.ingest.publisher import SnapshotPublisher
from repro.ingest.runner import Ingester, IngestHttpServer
from repro.ingest.wal import WriteAheadLog

__all__ = [
    "DeltaBatch",
    "Ingester",
    "IngestHttpServer",
    "PatchInfo",
    "SnapshotPublisher",
    "WriteAheadLog",
    "delta_digest",
    "delta_from_bytes",
    "delta_to_bytes",
    "load_delta",
    "patch_dataset",
    "save_delta",
]
