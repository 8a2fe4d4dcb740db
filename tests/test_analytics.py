"""Continuous analytics: differential engine, drift, store, runner."""

import os
import sqlite3

import numpy as np
import pytest

from repro.analytics import (
    AnalyticsEngine,
    AnalyticsRunner,
    DriftConfig,
    DriftDetector,
    MetricStore,
    analytics_lag,
    replay_wal,
)
from repro.core.density import patch_regression
from repro.core.distance import PAPER_BIN_MILES, preference_function
from repro.datasets.serialize import save_dataset
from repro.errors import AnalyticsError
from repro.geo.regions import STUDY_REGIONS
from repro.ingest import Ingester
from repro.measure.stream import DeltaStream
from repro.serve.index import DEFAULT_BIN_MILES, SnapshotIndex
from repro.sweep import ResultStore


@pytest.fixture(scope="module")
def dataset(pipeline_small):
    return pipeline_small.dataset("IxMapper", "Skitter")


@pytest.fixture(scope="module")
def field(pipeline_small):
    return pipeline_small.world.field


def _advance(dataset, field, batches, *, seed=42, **kwargs):
    """Apply ``batches`` DeltaStream batches through index + engine."""
    index = SnapshotIndex(dataset)
    engine = AnalyticsEngine(
        dataset, population=field, index=index, **kwargs
    )
    stream = DeltaStream(dataset, np.random.default_rng(seed))
    for spec in batches:
        batch = stream.next_batch(**spec)
        index = index.apply_delta(batch)
        engine.apply(batch, index)
    return engine, index


MIXED = [dict(n_adds=6, n_links=8, n_moves=3, n_remaps=2)] * 5
MOVE_HEAVY = [dict(n_adds=0, n_links=0, n_moves=40, n_remaps=0)] * 3
REMAP_HEAVY = [dict(n_adds=0, n_links=0, n_moves=0, n_remaps=200)] * 2
ADD_ONLY = [dict(n_adds=25, n_links=30, n_moves=0, n_remaps=0)] * 3


class TestEngineDifferential:
    @pytest.mark.parametrize(
        "batches", [MIXED, MOVE_HEAVY, REMAP_HEAVY, ADD_ONLY],
        ids=["mixed", "move-heavy", "remap-heavy", "add-only"],
    )
    def test_state_matches_from_scratch_bit_for_bit(
        self, dataset, field, batches
    ):
        engine, index = _advance(dataset, field, batches)
        fresh = AnalyticsEngine(
            index.dataset, population=field, index=index
        )
        for name, state in engine.regions.items():
            other = fresh.regions[name]
            assert np.array_equal(state.mask, other.mask)
            assert state.n_nodes == other.n_nodes
            # Integer state must be *identical*, not merely close.
            assert np.array_equal(state.pair_counts, other.pair_counts)
            assert np.array_equal(state.link_counts, other.link_counts)
            assert np.array_equal(state.occupancy, other.occupancy)
        assert engine.intradomain_links == fresh.intradomain_links
        assert engine.interdomain_links == fresh.interdomain_links

    def test_histograms_match_core_preference_function(self, dataset, field):
        engine, index = _advance(dataset, field, MIXED)
        for region in STUDY_REGIONS:
            bin_miles = PAPER_BIN_MILES.get(region.name, DEFAULT_BIN_MILES)
            pref = preference_function(index.dataset, region, bin_miles)
            state = engine.regions[region.name]
            assert np.array_equal(state.pair_counts, pref.pair_counts)
            assert np.array_equal(state.link_counts, pref.link_counts)
            assert state.n_nodes == pref.n_nodes

    def test_alpha_matches_core_patch_regression(self, dataset, field):
        engine, index = _advance(dataset, field, MIXED)
        metrics = engine.metrics()
        for region in STUDY_REGIONS:
            expected = patch_regression(index.dataset, field, region)
            assert metrics[f"alpha.{region.name}"] == pytest.approx(
                expected.fit.slope, rel=1e-9
            )

    def test_domain_counts_match_dataset_masks(self, dataset, field):
        engine, index = _advance(dataset, field, REMAP_HEAVY)
        final = index.dataset
        assert engine.intradomain_links == int(
            final.intradomain_mask().sum()
        )
        assert engine.interdomain_links == int(
            final.interdomain_mask().sum()
        )

    def test_metrics_match_from_scratch_metrics(self, dataset, field):
        engine, index = _advance(dataset, field, MIXED)
        fresh = AnalyticsEngine(
            index.dataset, population=field, index=index
        )
        live, scratch = engine.metrics(), fresh.metrics()
        assert set(live) == set(scratch)
        for name, value in live.items():
            assert value == pytest.approx(scratch[name], rel=1e-9), name

    def test_generation_guard(self, dataset, field):
        index = SnapshotIndex(dataset)
        engine = AnalyticsEngine(dataset, index=index)
        stream = DeltaStream(dataset, np.random.default_rng(0))
        batch = stream.next_batch()
        index = index.apply_delta(batch)
        skipped = index.apply_delta(
            stream.next_batch()
        )  # engine never saw `batch`s successor
        with pytest.raises(AnalyticsError):
            engine.apply(batch, skipped)

    def test_metrics_are_finite(self, dataset, field):
        engine, _ = _advance(dataset, field, MIXED)
        for name, value in engine.metrics().items():
            assert np.isfinite(value), name


class TestDriftDetector:
    def test_trigger_and_recover_fire_exactly_once(self):
        detector = DriftDetector(DriftConfig(warmup=4, threshold=6.0))
        events = []
        # Stable baseline, an abrupt sustained shift, then a long
        # settled tail: the capped CUSUM drains by ~slack per settled
        # generation, so recovery needs dozens of post-shift samples.
        series = [1.0, 1.01, 0.99, 1.0, 1.005, 0.995] + [3.0] * 40
        for gen, value in enumerate(series, start=1):
            event = detector.update("m", gen, value)
            if event is not None:
                events.append(event)
        kinds = [e.kind for e in events]
        # One trigger when the shift lands; one recover once the EWMA
        # has re-converged on the new level; never a second trigger.
        assert kinds.count("trigger") == 1
        assert kinds.count("recover") == 1
        assert kinds.index("trigger") < kinds.index("recover")

    def test_stable_series_never_alerts(self):
        rng = np.random.default_rng(7)
        detector = DriftDetector(DriftConfig(warmup=4))
        for gen in range(1, 200):
            value = 10.0 + rng.normal(0.0, 0.1)
            assert detector.update("m", gen, value) is None

    def test_allowlist_ignores_other_metrics(self):
        detector = DriftDetector(
            DriftConfig(warmup=1), metrics=["watched"]
        )
        for gen in range(1, 10):
            assert detector.update("ignored", gen, gen * 100.0) is None
        assert detector.score("ignored") == 0.0

    def test_per_metric_threshold_override(self):
        config = DriftConfig(warmup=2, threshold=100.0, z_clip=8.0)
        detector = DriftDetector(config, thresholds={"touchy": 2.0})
        series = [1.0, 1.0, 1.0, 50.0]
        triggered = []
        for gen, value in enumerate(series, start=1):
            for metric in ("touchy", "stoic"):
                event = detector.update(metric, gen, value)
                if event is not None:
                    triggered.append(event.metric)
        assert triggered == ["touchy"]

    def test_config_validation(self):
        with pytest.raises(AnalyticsError):
            DriftConfig(ewma_alpha=0.0)
        with pytest.raises(AnalyticsError):
            DriftConfig(threshold=-1.0)
        with pytest.raises(AnalyticsError):
            DriftConfig(recover_fraction=1.0)
        with pytest.raises(AnalyticsError):
            DriftConfig(warmup=0)

    def test_non_finite_samples_are_ignored(self):
        detector = DriftDetector(DriftConfig(warmup=1))
        assert detector.update("m", 1, float("nan")) is None
        assert detector.update("m", 2, float("inf")) is None
        assert detector.score("m") == 0.0


class TestMetricStore:
    def test_exactly_once_per_generation(self, tmp_path):
        store = MetricStore(tmp_path / "metrics.db")
        cid = store.ensure_campaign("test")
        assert store.record_generation(cid, 1, {"nodes": 10.0})
        assert not store.record_generation(cid, 1, {"nodes": 999.0})
        assert store.latest(cid)["metrics"]["nodes"] == 10.0
        assert store.generations(cid) == [1]

    def test_resume_after_crash_reopens_and_dedups(self, tmp_path):
        path = tmp_path / "metrics.db"
        store = MetricStore(path)
        cid = store.ensure_campaign("test")
        store.record_generation(cid, 1, {"m": 1.0})
        store.record_generation(cid, 2, {"m": 2.0})
        store.record_alert(
            cid, 2, "m", "trigger", value=2.0, score=7.0, threshold=6.0
        )
        # A "crashed" process holds no live handle: a fresh store over
        # the same file sees everything and re-recording is a no-op.
        reopened = MetricStore(path)
        rid = reopened.ensure_campaign("test")
        assert rid == cid
        assert reopened.generations(rid) == [1, 2]
        assert not reopened.record_generation(rid, 2, {"m": 99.0})
        assert not reopened.record_alert(
            rid, 2, "m", "trigger", value=2.0, score=7.0, threshold=6.0
        )
        assert len(reopened.alerts(rid)) == 1

    def test_non_finite_values_rejected(self, tmp_path):
        store = MetricStore(tmp_path / "metrics.db")
        cid = store.ensure_campaign("test")
        with pytest.raises(AnalyticsError):
            store.record_generation(cid, 1, {"bad": float("nan")})
        assert store.generations(cid) == []

    def test_history_and_names(self, tmp_path):
        store = MetricStore(tmp_path / "metrics.db")
        cid = store.ensure_campaign("test")
        for gen in range(1, 6):
            store.record_generation(cid, gen, {"a": float(gen), "b": 0.0})
        assert store.history(cid, "a", limit=3) == [
            (3, 3.0), (4, 4.0), (5, 5.0)
        ]
        assert store.metric_names(cid) == ["a", "b"]
        assert store.latest_gen(cid) == 5

    def test_campaigns_are_isolated(self, tmp_path):
        store = MetricStore(tmp_path / "metrics.db")
        a = store.ensure_campaign("a")
        b = store.ensure_campaign("b")
        store.record_generation(a, 1, {"m": 1.0})
        assert store.latest(b) is None
        assert store.campaigns() == ["a", "b"]

    def test_unusable_path_raises(self, tmp_path):
        missing = tmp_path / "not-a-dir"
        missing.write_text("plain file, not a directory")
        with pytest.raises(AnalyticsError):
            MetricStore(missing / "metrics.db")


@pytest.mark.parametrize(
    "store_cls", [ResultStore, MetricStore], ids=lambda cls: cls.__name__
)
def test_store_connection_settings(tmp_path, store_cls):
    store = store_cls(tmp_path / "store.db")
    with store._tx() as conn:
        pragma = {
            name: conn.execute(f"PRAGMA {name}").fetchone()[0]
            for name in ("journal_mode", "busy_timeout", "synchronous")
        }
    assert pragma == {"journal_mode": "wal", "busy_timeout": 10000,
                      "synchronous": 1}
    # Closed on exit, so a forked process inherits no live handle.
    with pytest.raises(sqlite3.ProgrammingError):
        conn.execute("SELECT 1")


class TestRunnerIntegration:
    def _run(self, dataset, tmp_path, specs, *, publish_batches=1, **kw):
        base = tmp_path / "base.npz"
        if not base.exists():
            save_dataset(dataset, base)
        out = tmp_path / "out"
        ingester = Ingester(base, out, publish_batches=publish_batches)
        runner = AnalyticsRunner(out / "analytics.db", **kw)
        runner.attach(ingester)
        runner.record_baseline(ingester.index)
        stream = DeltaStream(dataset, np.random.default_rng(11))
        for spec in specs:
            ingester.submit(stream.next_batch(**spec))
        ingester.close()
        return ingester, runner

    def test_publish_path_stores_generations(self, dataset, tmp_path):
        specs = [dict(n_adds=4, n_links=5, n_moves=2, n_remaps=1)] * 4
        ingester, runner = self._run(dataset, tmp_path, specs)
        cid = runner.store.campaign_id("ingest")
        # Baseline gen 1 plus one per published batch.
        assert runner.store.generations(cid) == [1, 2, 3, 4, 5]
        status = ingester.status()["analytics"]
        assert status["analyzed_gen"] == 5
        assert status["lag"] == 0
        latest = runner.store.latest(cid)
        assert latest["snapshot_hash"] == ingester.index.snapshot_hash
        assert latest["n_nodes"] == ingester.index.dataset.n_nodes

    def test_unpublished_batches_count_as_lag(self, dataset, tmp_path):
        specs = [dict(n_adds=4, n_links=5, n_moves=2, n_remaps=1)] * 3
        ingester, runner = self._run(
            dataset, tmp_path, specs, publish_batches=100
        )
        # Nothing published: only the baseline is analyzed, and the
        # index has moved 3 generations past it.
        status = ingester.status()["analytics"]
        assert status["analyzed_gen"] == 1
        assert status["lag"] == 3
        lag = analytics_lag(
            tmp_path / "out" / "analytics.db", "ingest", ingester.index.gen
        )
        assert lag["lag"] == 3

    def test_drift_alert_recorded_once_and_surfaced(self, dataset, tmp_path):
        specs = [dict(n_adds=4, n_links=5, n_moves=2, n_remaps=0)] * 5
        specs.append(dict(n_adds=0, n_links=0, n_moves=0, n_remaps=300))
        ingester, runner = self._run(
            dataset,
            tmp_path,
            specs,
            drift_config=DriftConfig(warmup=4),
            drift_metrics=["intradomain_share"],
        )
        cid = runner.store.campaign_id("ingest")
        alerts = runner.store.alerts(cid)
        triggers = [a for a in alerts if a["kind"] == "trigger"]
        assert len(triggers) == 1
        assert triggers[0]["metric"] == "intradomain_share"
        assert triggers[0]["gen"] == 7
        assert ingester.status()["analytics"]["alerting"] == [
            "intradomain_share"
        ]

    def test_offline_replay_is_idempotent_after_live_run(
        self, dataset, tmp_path
    ):
        specs = [dict(n_adds=4, n_links=5, n_moves=2, n_remaps=0)] * 5
        specs.append(dict(n_adds=0, n_links=0, n_moves=0, n_remaps=300))
        ingester, runner = self._run(
            dataset,
            tmp_path,
            specs,
            drift_config=DriftConfig(warmup=4),
            drift_metrics=["intradomain_share"],
        )
        cid = runner.store.campaign_id("ingest")
        before = {
            gen: runner.store.generation(cid, gen)["metrics"]
            for gen in runner.store.generations(cid)
        }
        summary = replay_wal(
            tmp_path / "base.npz",
            tmp_path / "out" / "ingest.wal",
            tmp_path / "out" / "analytics.db",
            drift_config=DriftConfig(warmup=4),
            drift_metrics=["intradomain_share"],
        )
        assert summary["new_alerts"] == 0
        assert summary["generations_stored"] == len(before)
        store = MetricStore(tmp_path / "out" / "analytics.db")
        for gen, metrics in before.items():
            assert store.generation(cid, gen)["metrics"] == metrics

    def test_observer_survives_engine_failure(self, dataset, tmp_path):
        base = tmp_path / "base.npz"
        save_dataset(dataset, base)
        ingester = Ingester(base, tmp_path / "out", publish_batches=1)
        runner = AnalyticsRunner(tmp_path / "out" / "analytics.db")
        runner.attach(ingester)

        def explode(batch, index):
            raise AnalyticsError("injected engine failure")

        runner.engine.apply = explode  # type: ignore[method-assign]
        stream = DeltaStream(dataset, np.random.default_rng(3))
        result = ingester.submit(stream.next_batch())
        ingester.close()
        # Ingest kept working, and the publish path re-seeded a fresh
        # engine so the generation still landed in the store.
        assert result["status"] == "applied"
        cid = runner.store.campaign_id("ingest")
        assert runner.store.latest_gen(cid) == ingester.index.gen


class TestCoordinatorEndpoints:
    @pytest.fixture()
    def analytics_db(self, tmp_path):
        store = MetricStore(tmp_path / "analytics.db")
        cid = store.ensure_campaign("ingest")
        store.record_generation(
            cid, 3, {"nodes": 100.0, "intradomain_share": 0.8},
            seq=2, snapshot_hash="hash-live", n_nodes=100, n_links=120,
        )
        store.record_generation(
            cid, 4, {"nodes": 104.0, "intradomain_share": 0.78},
            seq=3, snapshot_hash="hash-live-2", n_nodes=104, n_links=125,
        )
        store.record_alert(
            cid, 4, "intradomain_share", "trigger",
            value=0.78, score=7.0, threshold=6.0,
        )
        return tmp_path / "analytics.db"

    @pytest.fixture()
    def coordinator(self, analytics_db):
        from repro.cluster.coordinator import ClusterCoordinator, Routing

        routing = Routing(1, [], [], "hash-live-2")
        coordinator = ClusterCoordinator(
            routing, port=0, analytics_db=analytics_db
        )
        coordinator.start()
        yield coordinator
        coordinator.stop()

    def _get(self, coordinator, target):
        import json
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(
                coordinator.url + target, timeout=30
            ) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_latest(self, coordinator):
        status, payload = self._get(coordinator, "/analytics/latest")
        assert status == 200
        assert payload["gen"] == 4
        assert payload["in_sync"] is True
        assert payload["metrics"]["nodes"] == 104.0
        assert payload["alerts"][0]["kind"] == "trigger"

    def test_history(self, coordinator):
        status, payload = self._get(
            coordinator, "/analytics/history?metric=intradomain_share"
        )
        assert status == 200
        assert payload["points"] == [
            {"gen": 3, "value": 0.8},
            {"gen": 4, "value": 0.78},
        ]

    def test_history_unknown_metric_is_404(self, coordinator):
        status, payload = self._get(
            coordinator, "/analytics/history?metric=nope"
        )
        assert status == 404
        assert "nope" in payload["error"]

    def test_history_requires_metric(self, coordinator):
        status, _ = self._get(coordinator, "/analytics/history")
        assert status == 400

    def test_stats_block(self, coordinator):
        status, payload = self._get(coordinator, "/stats")
        assert status == 200
        block = payload["analytics"]
        assert block["latest_gen"] == 4
        assert block["in_sync"] is True
        assert block["lag"] == 0
        assert block["alerts"] == 1

    def test_unconfigured_is_400(self, tmp_path):
        from repro.cluster.coordinator import ClusterCoordinator, Routing

        coordinator = ClusterCoordinator(Routing(1, [], [], "h"), port=0)
        coordinator.start()
        try:
            status, payload = self._get(coordinator, "/analytics/latest")
        finally:
            coordinator.stop()
        assert status == 400
        assert "not configured" in payload["error"]


class TestProfilerDestination:
    def test_bare_profile_filename_lands_under_profiles(
        self, tmp_path, monkeypatch
    ):
        import argparse

        from repro.cli import _sampling_profiler

        monkeypatch.chdir(tmp_path)
        args = argparse.Namespace(
            profile_sampling="run.collapsed", sampling_hz=97.0
        )
        with _sampling_profiler(args):
            sum(range(1000))
        assert (tmp_path / "profiles" / "run.collapsed").exists()
        assert not (tmp_path / "run.collapsed").exists()

    def test_explicit_directory_is_respected(self, tmp_path, monkeypatch):
        import argparse

        from repro.cli import _sampling_profiler

        monkeypatch.chdir(tmp_path)
        target = tmp_path / "custom" / "run.collapsed"
        args = argparse.Namespace(
            profile_sampling=str(target), sampling_hz=97.0
        )
        with _sampling_profiler(args):
            sum(range(1000))
        assert target.exists()
        assert not (tmp_path / "profiles").exists()


def test_engine_rejects_partition_index(dataset):
    index = SnapshotIndex(dataset)
    index.partition = object()  # simulate a shard-local index
    with pytest.raises(AnalyticsError):
        AnalyticsEngine(dataset, index=index)


def test_analytics_lag_missing_store_is_none(tmp_path):
    assert analytics_lag(tmp_path / "missing.db", "ingest", 5) is None
    os.makedirs(tmp_path / "out")
    MetricStore(tmp_path / "out" / "analytics.db")
    assert (
        analytics_lag(tmp_path / "out" / "analytics.db", "ingest", 5) is None
    )
