"""Tests for repro.runtime: stage DAG, executor, cache, telemetry.

The determinism tests here are the PR's acceptance criteria: parallel
execution and cache round-trips must be bit-for-bit identical to a cold
serial run.
"""

import numpy as np
import pytest

from repro.datasets.pipeline import (
    STAGE_GROUND_TRUTH,
    STAGE_SKITTER,
    STAGE_WORLD,
    build_pipeline_graph,
    mapping_stage_name,
    run_pipeline,
)
from repro.errors import CacheError, StageGraphError
from repro.runtime import (
    ArtifactCache,
    Stage,
    StageGraph,
    Telemetry,
    config_digest,
    execute,
)
from repro.runtime.executor import stage_keys
from repro.runtime.telemetry import (
    STATUS_CACHE_HIT,
    STATUS_RAN,
    StageEvent,
    artifact_counters,
)


def _assert_datasets_identical(a, b):
    assert set(a.datasets) == set(b.datasets)
    for label in a.datasets:
        da, db = a.datasets[label], b.datasets[label]
        assert np.array_equal(da.addresses, db.addresses)
        assert np.array_equal(da.lats, db.lats)
        assert np.array_equal(da.lons, db.lons)
        assert np.array_equal(da.asns, db.asns)
        assert np.array_equal(da.links, db.links)
    assert a.processing_reports == b.processing_reports


class TestStageGraph:
    def test_duplicate_name_rejected(self):
        graph = StageGraph()
        graph.add(Stage(name="a", fn=lambda ctx: 1))
        with pytest.raises(StageGraphError):
            graph.add(Stage(name="a", fn=lambda ctx: 2))

    def test_unknown_input_rejected(self):
        graph = StageGraph()
        graph.add(Stage(name="a", fn=lambda ctx: 1, inputs=("ghost",)))
        with pytest.raises(StageGraphError):
            graph.validate()

    def test_cycle_rejected(self):
        graph = StageGraph()
        graph.add(Stage(name="a", fn=lambda ctx: 1, inputs=("b",)))
        graph.add(Stage(name="b", fn=lambda ctx: 2, inputs=("a",)))
        with pytest.raises(StageGraphError):
            graph.topological_order()

    def test_topological_order_respects_deps(self):
        graph = build_pipeline_graph()
        order = graph.topological_order()
        for stage in graph.stages():
            for dep in stage.inputs:
                assert order.index(dep) < order.index(stage.name)

    def test_unknown_stage_lookup(self):
        graph = StageGraph()
        with pytest.raises(StageGraphError):
            graph["nope"]

    def test_seed_streams_independent_of_everything_but_order(self):
        graph = build_pipeline_graph()
        s1 = graph.seed_streams(7)
        s2 = graph.seed_streams(7)
        for name in graph.names:
            assert s1[name].random() == s2[name].random()
        # Different stages get different streams.
        fresh = graph.seed_streams(7)
        draws = {name: fresh[name].random() for name in graph.names}
        assert len(set(draws.values())) == len(draws)

    def test_pipeline_graph_shape(self):
        graph = build_pipeline_graph()
        assert STAGE_WORLD in graph
        assert STAGE_GROUND_TRUTH in graph
        assert mapping_stage_name("IxMapper", "Skitter") in graph
        assert len(graph) == 10
        assert STAGE_SKITTER in graph.dependents_of(STAGE_GROUND_TRUTH)


class TestExecutor:
    def _toy_graph(self):
        graph = StageGraph()
        graph.add(Stage(name="base", fn=lambda ctx: ctx.rng.random(4)))
        graph.add(
            Stage(
                name="left",
                fn=lambda ctx: ctx.input("base") + ctx.rng.random(4),
                inputs=("base",),
            )
        )
        graph.add(
            Stage(
                name="right",
                fn=lambda ctx: ctx.input("base") * ctx.rng.random(4),
                inputs=("base",),
            )
        )
        graph.add(
            Stage(
                name="join",
                fn=lambda ctx: ctx.input("left") - ctx.input("right"),
                inputs=("left", "right"),
                uses_rng=False,
            )
        )
        return graph

    def test_serial_equals_parallel(self):
        serial = execute(self._toy_graph(), config=None, seed=42, jobs=1)
        parallel = execute(self._toy_graph(), config=None, seed=42, jobs=4)
        for name in ("base", "left", "right", "join"):
            assert np.array_equal(serial[name], parallel[name])

    def test_jobs_must_be_positive(self):
        with pytest.raises(StageGraphError):
            execute(self._toy_graph(), config=None, seed=1, jobs=0)

    def test_stage_failure_propagates(self):
        graph = StageGraph()

        def boom(ctx):
            raise ValueError("stage exploded")

        graph.add(Stage(name="boom", fn=boom))
        with pytest.raises(ValueError, match="stage exploded"):
            execute(graph, config=None, seed=1, jobs=2)

    def test_undeclared_input_access_fails(self):
        graph = StageGraph()
        graph.add(Stage(name="a", fn=lambda ctx: ctx.input("ghost")))
        with pytest.raises(StageGraphError):
            execute(graph, config=None, seed=1)


class TestArtifactCache:
    def test_store_load_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("k1", {"x": [1, 2, 3]})
        hit, value = cache.load("k1")
        assert hit and value == {"x": [1, 2, 3]}
        assert cache.hits == 1

    def test_miss_counts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        hit, value = cache.load("absent")
        assert not hit and value is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("k1", [1, 2])
        path = next(tmp_path.glob("k1*"))
        path.write_bytes(b"not a pickle")
        hit, _ = cache.load("k1")
        assert not hit

    def test_unknown_codec_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(CacheError):
            cache.store("k", 1, codec="no-such-codec")

    def test_config_digest_sensitivity(self, small_config):
        base = config_digest(small_config)
        assert base == config_digest(small_config)
        from repro.config import small_scenario

        assert base != config_digest(small_scenario(seed=small_config.seed + 1))

    def test_stage_keys_chain_upstream(self, small_config):
        graph = build_pipeline_graph()
        keys = stage_keys(graph, small_config)
        assert len(set(keys.values())) == len(keys)
        from repro.config import small_scenario

        other = stage_keys(graph, small_scenario(seed=small_config.seed + 1))
        assert all(keys[name] != other[name] for name in keys)

    def test_stage_keys_cover_the_code(self, small_config, monkeypatch):
        """A code change retires every cached artefact of the old code."""
        from repro.runtime import cache

        graph = build_pipeline_graph()
        keys = stage_keys(graph, small_config)
        monkeypatch.setattr(cache, "code_digest", lambda: "0" * 64)
        edited = stage_keys(graph, small_config)
        assert all(keys[name] != edited[name] for name in keys)


class TestTelemetry:
    def test_events_and_profile(self):
        telemetry = Telemetry()
        execute(
            StageGraph(
                {"one": Stage(name="one", fn=lambda ctx: ctx.rng.random(3))}
            ),
            config=None,
            seed=3,
            telemetry=telemetry,
        )
        assert [e.stage for e in telemetry.events] == ["one"]
        event = telemetry.event_for("one")
        assert event is not None and event.status == STATUS_RAN
        assert event.wall_s >= 0.0
        assert "one" in telemetry.render_profile()
        assert event.to_dict()["stage"] == "one"

    def test_sink_receives_events(self):
        seen = []
        telemetry = Telemetry(sink=seen.append)
        execute(
            StageGraph({"s": Stage(name="s", fn=lambda ctx: 1)}),
            config=None,
            seed=3,
            telemetry=telemetry,
        )
        assert [e.stage for e in seen] == ["s"]

    def test_events_carry_monotonic_timestamps(self):
        telemetry = Telemetry()
        execute(
            StageGraph(
                {
                    "a": Stage(name="a", fn=lambda ctx: 1),
                    "b": Stage(name="b", fn=lambda ctx: 2, inputs=("a",)),
                }
            ),
            config=None,
            seed=3,
            telemetry=telemetry,
        )
        by_name = {e.stage: e for e in telemetry.events}
        for event in by_name.values():
            assert event.end_s >= event.start_s > 0.0
            assert event.wall_s == pytest.approx(
                event.end_s - event.start_s, abs=1e-6
            )
        # b depends on a, so it cannot start before a finished.
        assert by_name["b"].start_s >= by_name["a"].end_s
        assert {"start_s", "end_s"} <= by_name["a"].to_dict().keys()

    def test_render_profile_ordered_by_start_time(self):
        telemetry = Telemetry()
        # Record completion out of start order: z finished first but
        # started last.
        telemetry.record(
            StageEvent("z", STATUS_RAN, 0.1, 10.0, {}, start_s=5.0, end_s=5.1)
        )
        telemetry.record(
            StageEvent("a", STATUS_RAN, 9.0, 20.0, {}, start_s=1.0, end_s=10.0)
        )
        profile = telemetry.render_profile()
        lines = profile.splitlines()
        stages = [line.split()[0] for line in lines[2:]]
        assert stages == ["a", "z", "total"]
        # The total row aligns wall and rss under their columns.
        header, total = lines[1], lines[-1]
        assert total.index("9.100") < header.index("rss MB")
        assert "20.0" in total  # peak RSS, not a sum

    def test_empty_profile_renders(self):
        assert "(no stages recorded)" in Telemetry().render_profile()


class TestArtifactCounters:
    def test_nested_tuples_first_provider_wins(self):
        class Inventory:
            n_nodes = 7
            n_links = 3

        class Table:
            entries = {"10.0.0.0/8": 1}

        counters = artifact_counters(((Inventory(), Table()), Inventory()))
        assert counters == {"nodes": 7, "links": 3, "entries": 1}

    def test_object_with_both_n_nodes_and_routers(self):
        class Hybrid:
            n_nodes = 42  # explicit counter beats n_routers
            n_routers = 2
            n_interfaces = 1

        assert artifact_counters(Hybrid()) == {
            "nodes": 42,
            "interfaces": 1,
        }

    def test_topology_counts_routers_and_interfaces(self, toy_topology):
        assert artifact_counters(toy_topology) == {
            "links": 5,
            "nodes": 6,
            "interfaces": 16,
        }

    def test_non_int_n_nodes_ignored(self):
        class Weird:
            n_nodes = "many"

        assert artifact_counters(Weird()) == {}

    def test_opaque_values_give_empty_counters(self):
        assert artifact_counters(object()) == {}
        assert artifact_counters(()) == {}


class TestPipelineDeterminism:
    """The PR's acceptance criteria, at test scale."""

    def test_parallel_identical_to_serial(self, pipeline_small, small_config):
        parallel = run_pipeline(small_config, jobs=4)
        _assert_datasets_identical(pipeline_small, parallel)

    def test_cache_hit_equals_cold_run(
        self, pipeline_small, small_config, tmp_path
    ):
        cold = run_pipeline(small_config, cache_dir=tmp_path)
        _assert_datasets_identical(pipeline_small, cold)

        telemetry = Telemetry()
        warm = run_pipeline(
            small_config, cache_dir=tmp_path, jobs=2, telemetry=telemetry
        )
        _assert_datasets_identical(pipeline_small, warm)
        statuses = {e.stage: e.status for e in telemetry.events}
        assert set(statuses.values()) == {STATUS_CACHE_HIT}
        assert len(statuses) == 10

    def test_telemetry_covers_every_stage(self, small_config):
        telemetry = Telemetry()
        run_pipeline(small_config, telemetry=telemetry)
        graph = build_pipeline_graph()
        assert {e.stage for e in telemetry.events} == set(graph.names)
