"""The ingester: WAL-journaled, re-indexed per batch, auto-published.

An :class:`Ingester` owns one ingest directory holding the write-ahead
log, a checkpoint, and the published generation files::

    out_dir/
      ingest.wal        append-only delta journal
      checkpoint.json   last published (seq, gen, snapshot, hash)
      gen-<seq>.npz     published generations (newest few)

Every submitted batch is journaled *before* it is applied, and the
checkpoint is written only *after* a generation publishes, so the
invariant ``checkpoint snapshot + WAL[checkpoint.seq+1 ..] = current
state`` holds across any crash: recovery loads the checkpointed
generation, replays only the suffix, and each journaled batch is
applied exactly once.  Batch content digests are remembered so a spool
file that survived a crash between journal and unlink cannot be
journaled twice.

End-to-end freshness (delta arrival → servable generation) feeds the
``ingest.freshness_s`` histogram; counts and sequence numbers export as
counters/gauges through the ambient metrics registry.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from types import SimpleNamespace

from repro.datasets.mapped import MappedDataset
from repro.datasets.serialize import load_dataset
from repro.durable import durable_replace
from repro.errors import IngestError
from repro.ingest.deltas import DeltaBatch, delta_digest
from repro.ingest.publisher import SnapshotPublisher
from repro.ingest.wal import WriteAheadLog
from repro.obs.bus import publish as bus_publish
from repro.obs.metrics import current_metrics, incr, set_gauge
from repro.obs.report import dataset_digest
from repro.serve.index import DEFAULT_CELL_ARCMIN, SnapshotIndex
from repro.serve.server import FrontEnd

#: Publish when this many batches are pending...
DEFAULT_PUBLISH_BATCHES = 3
#: ... or when the oldest pending batch is this stale (seconds).
DEFAULT_PUBLISH_AGE_S = 10.0
#: Freshness histogram buckets (seconds from arrival to servable).
FRESHNESS_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0
)


class Ingester:
    """Journals, applies, and publishes measurement delta batches."""

    def __init__(
        self,
        base: MappedDataset | str | Path,
        out_dir: str | Path,
        *,
        cell_arcmin: float = DEFAULT_CELL_ARCMIN,
        publish_batches: int = DEFAULT_PUBLISH_BATCHES,
        publish_age_s: float = DEFAULT_PUBLISH_AGE_S,
        coordinator_url: str | None = None,
        keep_generations: int | None = None,
        sync: bool = True,
    ) -> None:
        if publish_batches < 1:
            raise IngestError("publish_batches must be >= 1")
        if publish_age_s <= 0:
            raise IngestError("publish_age_s must be positive")
        #: Optional analytics observer (see
        #: :class:`repro.analytics.runner.AnalyticsRunner`) — notified
        #: after each applied batch and each published generation.
        #: Attached after construction, so WAL-replayed batches are not
        #: observed (each publish hands the observer the whole index).
        self.observer = None
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.publish_batches = publish_batches
        self.publish_age_s = publish_age_s
        self._cell_arcmin = cell_arcmin
        self._lock = threading.RLock()
        kw = {} if keep_generations is None else {
            "keep_generations": keep_generations
        }
        self.publisher = SnapshotPublisher(
            self.out_dir, coordinator_url=coordinator_url, **kw
        )
        if current_metrics() is not None:
            current_metrics().histogram(
                "ingest.freshness_s", FRESHNESS_BUCKETS
            )

        if isinstance(base, MappedDataset):
            base_dataset = base
        else:
            base_dataset = load_dataset(base)

        # Recovery: checkpointed generation + WAL suffix, exactly once.
        checkpoint = self._read_checkpoint()
        #: The last checkpoint record (the newest published generation).
        self.checkpoint = checkpoint
        start_seq = 0
        dataset = base_dataset
        self.published_seq = 0
        if checkpoint is not None:
            snap = Path(checkpoint["snapshot"])
            if not snap.is_absolute():
                snap = self.out_dir / snap
            restored = load_dataset(snap)
            if dataset_digest(restored) != checkpoint["snapshot_hash"]:
                raise IngestError(
                    f"checkpoint snapshot {snap} does not match its "
                    "recorded hash (corrupt, or written before the content "
                    "hash became SHA-256 over column bytes); refusing to "
                    "resume from it — rebuild it with `repro ingest "
                    "replay --base BASE --wal WAL --out NEW.npz`"
                )
            dataset = restored
            start_seq = int(checkpoint["seq"])
            self.published_seq = start_seq
        self.index = SnapshotIndex(dataset, cell_arcmin)
        if checkpoint is not None:
            # Generation numbers stay monotonic across restarts.
            self.index.gen = int(checkpoint.get("gen", 1))

        self.wal = WriteAheadLog(self.out_dir / "ingest.wal", sync=sync)
        self._seen_digests: set[str] = set()
        self._pending_stamps: list[float] = []
        replayed = 0
        for seq, batch in self.wal.replay_deltas(0):
            self._seen_digests.add(delta_digest(batch))
            if seq > start_seq:
                self.index = self.index.apply_delta(batch)
                self._pending_stamps.append(batch.created_unix)
                replayed += 1
        self.applied_seq = self.wal.last_seq
        self.replayed_batches = replayed
        self._export_gauges()

    # -- checkpoint ----------------------------------------------------------

    @property
    def _checkpoint_path(self) -> Path:
        return self.out_dir / "checkpoint.json"

    def _read_checkpoint(self) -> dict | None:
        try:
            payload = json.loads(self._checkpoint_path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise IngestError(f"unreadable ingest checkpoint: {exc}") from exc
        for key in ("seq", "snapshot", "snapshot_hash"):
            if key not in payload:
                raise IngestError(f"ingest checkpoint missing {key!r}")
        return payload

    def _write_checkpoint(self, facts: dict) -> None:
        record = {
            "seq": facts["seq"],
            "snapshot": Path(facts["snapshot"]).name,
            "snapshot_hash": facts["snapshot_hash"],
            "gen": self.index.gen,
            "published_unix": facts["published_unix"],
        }
        tmp = self._checkpoint_path.with_name("checkpoint.json.tmp")
        tmp.write_text(json.dumps(record, sort_keys=True))
        durable_replace(tmp, self._checkpoint_path)
        self.checkpoint = record

    # -- ingestion -----------------------------------------------------------

    def submit(self, batch: DeltaBatch) -> dict:
        """Journal and apply one batch; publish when thresholds trip.

        Duplicate content (same logical arrays as an already-journaled
        batch) is dropped idempotently — the spool crash-recovery
        contract.  Returns JSON-ready facts about what happened.

        Raises:
            IngestError: when the batch is invalid for the current
                snapshot (nothing is journaled in that case).
        """
        with self._lock:
            digest = delta_digest(batch)
            if digest in self._seen_digests:
                incr("ingest.duplicates_dropped")
                return {"status": "duplicate", "seq": self.applied_seq}
            if batch.created_unix <= 0:
                batch = batch.stamped(time.time())
            # Validate against the live index *before* journaling so a
            # bad batch cannot poison the WAL for every future replay.
            new_index = self.index.apply_delta(batch)
            seq = self.wal.append_delta(batch)
            self.index = new_index
            self._seen_digests.add(digest)
            self.applied_seq = seq
            self._pending_stamps.append(batch.created_unix)
            incr("ingest.batches_ingested")
            incr("ingest.ops_ingested", batch.n_ops)
            if self.observer is not None:
                self.observer.on_apply(batch, self.index)
            self._export_gauges()
            bus_publish(
                "ingest.batch", seq=seq, digest=digest[:16],
                **batch.summary(),
            )
            published = self.maybe_publish()
            return {
                "status": "applied",
                "seq": seq,
                "gen": self.index.gen,
                "published": published is not None,
            }

    def maybe_publish(self, force: bool = False) -> dict | None:
        """Publish when enough batches or enough age accumulated."""
        with self._lock:
            if not self._pending_stamps:
                return None
            oldest = min(
                (s for s in self._pending_stamps if s > 0),
                default=time.time(),
            )
            if (
                force
                or len(self._pending_stamps) >= self.publish_batches
                or time.time() - oldest >= self.publish_age_s
            ):
                return self._publish()
            return None

    def _publish(self) -> dict:
        facts = self.publisher.publish(self.index.dataset, self.applied_seq)
        self._write_checkpoint(facts)
        self.published_seq = self.applied_seq
        now = time.time()
        metrics = current_metrics()
        for stamp in self._pending_stamps:
            if stamp > 0 and metrics is not None:
                metrics.histogram(
                    "ingest.freshness_s", FRESHNESS_BUCKETS
                ).observe(now - stamp)
        self._pending_stamps.clear()
        if self.observer is not None:
            self.observer.on_publish(facts, self.index)
        self._export_gauges()
        return facts

    def _export_gauges(self) -> None:
        set_gauge("ingest.applied_seq", float(self.applied_seq))
        set_gauge("ingest.published_seq", float(self.published_seq))
        set_gauge("ingest.pending_batches", float(len(self._pending_stamps)))
        set_gauge("ingest.gen", float(self.index.gen))

    # -- bookkeeping ---------------------------------------------------------

    @property
    def pending_batches(self) -> int:
        """Batches applied but not yet part of a published generation."""
        with self._lock:
            return len(self._pending_stamps)

    def status(self) -> dict:
        """JSON-ready ingester facts."""
        with self._lock:
            status = {
                "out_dir": str(self.out_dir),
                "wal": self.wal.stats(),
                "applied_seq": self.applied_seq,
                "published_seq": self.published_seq,
                "pending_batches": len(self._pending_stamps),
                "gen": self.index.gen,
                "snapshot_hash": self.index.snapshot_hash,
                "n_nodes": self.index.dataset.n_nodes,
                "n_links": self.index.dataset.n_links,
                "replayed_batches": self.replayed_batches,
            }
            if self.observer is not None:
                status["analytics"] = self.observer.status_block(
                    self.index.gen
                )
            return status

    def close(self) -> None:
        """Close the WAL append handle."""
        self.wal.close()

    def __enter__(self) -> "Ingester":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class IngestHttpServer(FrontEnd):
    """Observability endpoint for a running ingester.

    Serves ``/metrics`` (the ambient metrics registry when one is
    active), ``/healthz``, ``/stats``, and ``/status`` (the ingester's
    status dict) — enough for the smoke gate and a scrape target,
    deliberately not a query server.  ``/status`` is live state, so
    nothing is cached.  ``/healthz`` reports the last published
    generation (hash null and gen 0 before the first).
    """

    metric_prefix = "ingest.http"
    response_cache = False

    def __init__(
        self, ingester: Ingester, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.ingester = ingester
        super().__init__(host=host, port=port, metrics=current_metrics())

    def _snapshot(self) -> SimpleNamespace:
        # The checkpoint already holds the published hash, so the probe
        # never digests the live, unpublished index.
        published = self.ingester.checkpoint or {}
        return SimpleNamespace(
            snapshot_hash=published.get("snapshot_hash"),
            gen=published.get("gen", 0),
            built_unix=published.get("published_unix", 0.0),
        )

    def _dispatch(self, endpoint, path, raw_query, index, trace_id):
        if endpoint == "status":
            return 200, self.ingester.status()
        return super()._dispatch(endpoint, path, raw_query, index, trace_id)
