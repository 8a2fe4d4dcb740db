"""Hooking continuous analytics into the ingest path.

An :class:`AnalyticsRunner` is the :class:`~repro.ingest.runner.Ingester`
observer: each published generation's metrics are computed from scratch
by an :class:`~repro.analytics.engine.AnalyticsEngine`, stored in the
:class:`~repro.analytics.store.MetricStore`, fed to the
:class:`~repro.analytics.drift.DriftDetector`, drift events are
published on the telemetry bus, and the ``repro_analytics_*`` gauges
are refreshed.

The observer is deliberately fail-open: an error while computing a
generation's metrics bumps ``analytics.metric_errors`` and skips that
generation rather than failing the ingest write path.

:func:`replay_wal` is the offline twin — ``repro analytics run`` drives
it over a base snapshot plus an ingest WAL to produce the same
generation-keyed series the live observer would have written; the
store's unique keys make the two paths meet idempotently.
"""

from __future__ import annotations

from pathlib import Path

from repro.analytics.drift import DriftConfig, DriftDetector, DriftEvent
from repro.analytics.engine import AnalyticsEngine
from repro.analytics.store import MetricStore
from repro.datasets.mapped import MappedDataset
from repro.errors import ReproError
from repro.ingest.deltas import DeltaBatch
from repro.ingest.wal import WriteAheadLog
from repro.obs.bus import publish as bus_publish
from repro.obs.metrics import incr, set_gauge
from repro.serve.index import DEFAULT_CELL_ARCMIN, SnapshotIndex

#: Default campaign name for the live ingest observer.
DEFAULT_CAMPAIGN = "ingest"
#: Default store filename inside an ingest output directory.
DEFAULT_DB_NAME = "analytics.db"


class AnalyticsRunner:
    """Ingester observer that computes and persists per-gen metrics."""

    def __init__(
        self,
        store: MetricStore | str | Path,
        campaign: str = DEFAULT_CAMPAIGN,
        *,
        drift_config: DriftConfig | None = None,
        drift_metrics: list[str] | None = None,
        drift_thresholds: dict[str, float] | None = None,
    ) -> None:
        self.store = (
            store if isinstance(store, MetricStore) else MetricStore(store)
        )
        self.campaign = campaign
        self.campaign_id = self.store.ensure_campaign(campaign)
        self.detector = DriftDetector(
            drift_config,
            metrics=drift_metrics,
            thresholds=drift_thresholds,
        )
        self.alerts_total = sum(
            1
            for alert in self.store.alerts(self.campaign_id, limit=10_000)
            if alert["kind"] == "trigger"
        )
        # Warm the detector baseline from the stored series so a
        # restarted process scores against history, not a cold start.
        # Events are dropped: any alert they would raise was already
        # recorded (the store key dedups the re-run).
        for gen in self.store.generations(self.campaign_id):
            record = self.store.generation(self.campaign_id, gen)
            if record is not None:
                self.detector.update_all(gen, record["metrics"])

    # -- observer protocol ----------------------------------------------------

    def attach(self, ingester) -> None:
        """Start observing the ingester's batches and publishes."""
        ingester.observer = self

    def on_apply(self, batch: DeltaBatch, index: SnapshotIndex) -> None:
        """Per-batch hook: metrics are computed per published generation."""

    def on_publish(self, facts: dict, index: SnapshotIndex) -> None:
        """Persist the published generation's metrics and score drift."""
        self._record(
            index,
            seq=int(facts.get("seq", 0)),
            snapshot_hash=str(facts.get("snapshot_hash", "")),
        )

    # -- shared plumbing ------------------------------------------------------

    def record_baseline(self, index: SnapshotIndex, *, seq: int = 0) -> bool:
        """Store ``index``'s generation outside the publish path (the
        seed generation of a run); False when present or failed."""
        return self._record(index, seq=seq, snapshot_hash=index.snapshot_hash)

    def _record(
        self, index: SnapshotIndex, *, seq: int, snapshot_hash: str
    ) -> bool:
        """Compute, store and score one generation (fail-open)."""
        gen = int(index.gen)
        try:
            metrics = AnalyticsEngine(index.dataset, index=index).metrics()
        except ReproError:
            incr("analytics.metric_errors")
            return False
        fresh = self.store.record_generation(
            self.campaign_id,
            gen,
            metrics,
            seq=seq,
            snapshot_hash=snapshot_hash,
            n_nodes=index.dataset.n_nodes,
            n_links=index.dataset.n_links,
        )
        if fresh:
            # Only a first-time generation feeds the detector —
            # a crash-replayed publish must not double-count.
            for event in self.detector.update_all(gen, metrics):
                self._emit(event)
        self._export_gauges(gen)
        return fresh

    def _emit(self, event: DriftEvent) -> None:
        stored = self.store.record_alert(
            self.campaign_id,
            event.gen,
            event.metric,
            event.kind,
            value=event.value,
            score=event.score,
            threshold=event.threshold,
        )
        if not stored:
            return
        if event.kind == "trigger":
            self.alerts_total += 1
            incr("analytics.alerts_total")
        bus_publish(
            "analytics.drift",
            metric=event.metric,
            edge=event.kind,
            gen=event.gen,
            value=round(event.value, 6),
            score=round(event.score, 3),
        )

    def _export_gauges(self, gen: int) -> None:
        set_gauge("analytics.analyzed_gen", float(gen))
        set_gauge(
            "analytics.alerts_active", float(len(self.detector.alerting))
        )
        set_gauge("analytics.alerts_total", float(self.alerts_total))

    def status_block(self, current_gen: int | None = None) -> dict:
        """JSON-ready analytics facts for status surfaces."""
        analyzed = self.store.latest_gen(self.campaign_id)
        block = {
            "campaign": self.campaign,
            "analyzed_gen": analyzed,
            "alerting": self.detector.alerting,
            "alerts_total": self.alerts_total,
        }
        if current_gen is not None:
            block["lag"] = (
                current_gen if analyzed is None else current_gen - analyzed
            )
        return block


def analytics_lag(
    db_path: Path | str, campaign: str, current_gen: int
) -> dict | None:
    """Read-only lag block against a store that may not exist.

    Returns None when the store file or campaign is absent, so status
    surfaces can omit the section instead of erroring.
    """
    path = Path(db_path)
    if not path.exists():
        return None
    store = MetricStore(path)
    campaign_id = store.campaign_id(campaign)
    if campaign_id is None:
        return None
    analyzed = store.latest_gen(campaign_id)
    return {
        "campaign": campaign,
        "analyzed_gen": analyzed,
        "lag": current_gen if analyzed is None else current_gen - analyzed,
        "alerts": len(store.alerts(campaign_id, limit=10_000)),
    }


def replay_wal(
    base: MappedDataset | str | Path,
    wal_path: str | Path,
    store: MetricStore | str | Path,
    campaign: str = DEFAULT_CAMPAIGN,
    *,
    cell_arcmin: float = DEFAULT_CELL_ARCMIN,
    drift_config: DriftConfig | None = None,
    drift_metrics: list[str] | None = None,
    drift_thresholds: dict[str, float] | None = None,
) -> dict:
    """Offline analytics: base snapshot + WAL -> per-generation series.

    Analyzes *every* generation (one per journaled batch), numbered the
    same way the live ingester numbers them — ``gen = 1 + seq`` over a
    fresh base — so a later online run against the same directory lands
    on the same keys and the store's idempotent writes merge the two.

    Returns a JSON-ready summary of what the replay recorded.
    """
    if isinstance(base, MappedDataset):
        dataset = base
    else:
        from repro.datasets.serialize import load_dataset

        dataset = load_dataset(base)
    runner = AnalyticsRunner(
        store,
        campaign,
        drift_config=drift_config,
        drift_metrics=drift_metrics,
        drift_thresholds=drift_thresholds,
    )
    index = SnapshotIndex(dataset, cell_arcmin)
    runner.record_baseline(index)
    recorded = 1
    alerts_before = runner.alerts_total
    wal = WriteAheadLog(wal_path, sync=False)
    try:
        for seq, batch in wal.replay_deltas(0):
            index = index.apply_delta(batch)
            runner.on_publish(
                {"seq": seq, "snapshot_hash": index.snapshot_hash}, index
            )
            recorded += 1
    finally:
        wal.close()
    return {
        "campaign": campaign,
        "final_gen": int(index.gen),
        "generations_analyzed": recorded,
        "generations_stored": len(runner.store.generations(runner.campaign_id)),
        "new_alerts": runner.alerts_total - alerts_before,
        "alerting": runner.detector.alerting,
    }
