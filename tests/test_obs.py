"""Tests for repro.obs: tracing, metrics, logging, run reports.

The observed-run fixture here is the PR's acceptance criterion at test
scale: a small pipeline run under an active tracer/registry must yield
a schema-valid report with a >= 3-deep span tree, nonzero geolocation
and BGP counters, and a clean self-diff.
"""

from __future__ import annotations

import contextvars
import io
import json
import threading

import numpy as np
import pytest

from repro.config import small_scenario
from repro.datasets.pipeline import run_pipeline
from repro.errors import ReportError
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    Tracer,
    build_run_report,
    current_metrics,
    current_span,
    current_tracer,
    dataset_digest,
    diff_reports,
    get_logger,
    incr,
    load_report,
    observe,
    render_diff,
    render_report,
    setup_logging,
    span,
    use_metrics,
    use_tracer,
    validate_report,
    write_report,
)
from repro.obs.report import RunReport
from repro.runtime import Telemetry


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child", flavour="a") as child:
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        assert [s.name for s in tracer.roots] == ["root"]
        assert [s.name for s in root.children] == ["child", "sibling"]
        assert [s.name for s in child.children] == ["leaf"]
        assert child.attributes == {"flavour": "a"}
        assert tracer.max_depth() == 3
        assert root.wall_s >= child.wall_s >= 0.0

    def test_module_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        with span("anything", x=1) as handle:
            assert handle is NULL_SPAN
            handle.set(y=2)  # must not raise

    def test_module_span_attaches_to_active_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with span("outer"):
                assert current_span() is not None
                with span("inner"):
                    pass
        assert current_tracer() is None
        assert [s.name for s in tracer.iter_spans()] == ["outer", "inner"]
        assert tracer.find("inner")[0].end_s > 0.0

    def test_spans_nest_across_threads_with_copied_context(self):
        """Worker threads given a copied context attach under the parent."""
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("parent"):
                threads = []
                for i in range(4):
                    ctx = contextvars.copy_context()

                    def work(i=i, ctx=ctx):
                        ctx.run(lambda: self._worker_span(tracer, i))

                    threads.append(threading.Thread(target=work))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        (parent,) = tracer.roots
        names = sorted(child.name for child in parent.children)
        assert names == [f"worker-{i}" for i in range(4)]
        threads_seen = {child.thread for child in parent.children}
        assert len(threads_seen) == 4

    @staticmethod
    def _worker_span(tracer: Tracer, i: int) -> None:
        with tracer.span(f"worker-{i}"):
            pass

    def test_to_dict_roundtrips_the_tree_shape(self):
        tracer = Tracer()
        with tracer.span("a", k="v"):
            with tracer.span("b"):
                pass
        (payload,) = tracer.to_dicts()
        assert payload["name"] == "a"
        assert payload["attributes"] == {"k": "v"}
        assert payload["children"][0]["name"] == "b"
        assert payload["wall_s"] == pytest.approx(
            payload["end_s"] - payload["start_s"]
        )


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").add(3)
        registry.counter("c").add(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2.0)
        registry.histogram("h").observe(4.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"] == {
            "count": 2, "sum": 6.0, "min": 2.0, "max": 4.0, "mean": 3.0,
        }
        assert registry.counter_value("c") == 5
        assert registry.counter_value("absent") == 0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").add(-1)

    def test_empty_histogram_summary_is_zeroed(self):
        assert MetricsRegistry().histogram("h").summary()["count"] == 0

    def test_helpers_are_noops_without_registry(self):
        assert current_metrics() is None
        incr("nothing")
        observe("nothing", 1.0)

    def test_helpers_hit_the_active_registry(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            incr("hits", 2)
            observe("size", 7.0)
        assert registry.counter_value("hits") == 2
        assert registry.histogram("size").count == 1

    def test_concurrent_increments_are_lossless(self):
        registry = MetricsRegistry()

        def bump():
            for _ in range(1000):
                registry.counter("n").add(1)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter_value("n") == 8000


class TestLogging:
    def test_verbose_emits_json_lines(self):
        stream = io.StringIO()
        setup_logging(verbose=True, stream=stream)
        get_logger("test").info("hello", extra={"answer": 42})
        (line,) = stream.getvalue().strip().splitlines()
        payload = json.loads(line)
        assert payload["message"] == "hello"
        assert payload["logger"] == "repro.test"
        assert payload["answer"] == 42
        assert payload["level"] == "INFO"

    def test_quiet_suppresses_info(self):
        stream = io.StringIO()
        setup_logging(verbose=False, stream=stream)
        get_logger("test").info("hidden")
        get_logger("test").warning("shown")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["message"] == "shown"

    def test_unserialisable_extra_falls_back_to_repr(self):
        record_stream = io.StringIO()
        setup_logging(verbose=True, stream=record_stream)
        get_logger("test").info("x", extra={"obj": object()})
        payload = json.loads(record_stream.getvalue())
        assert payload["obj"].startswith("<object object")

    def teardown_method(self):
        # Restore a stderr-bound quiet logger for the rest of the suite.
        setup_logging(verbose=False)


@pytest.fixture(scope="module")
def observed_run():
    """One small pipeline run with full observability active."""
    config = small_scenario()
    tracer = Tracer()
    registry = MetricsRegistry()
    telemetry = Telemetry()
    with use_tracer(tracer), use_metrics(registry):
        result = run_pipeline(config, jobs=2, telemetry=telemetry)
    report = build_run_report(
        config=config,
        result=result,
        telemetry=telemetry,
        tracer=tracer,
        metrics=registry,
        argv=["run", "--scale", "small"],
    )
    return config, result, tracer, registry, report


def _digest_dataset(**overrides):
    from repro.datasets.mapped import MappedDataset

    columns = dict(
        label="digest",
        kind="skitter",
        addresses=np.array([10, 20, 30, 40], dtype=np.int64),
        lats=np.array([40.0, 41.0, 50.0, 35.0]),
        lons=np.array([-100.0, -100.5, 10.0, -90.0]),
        asns=np.array([1, 1, 2, 3], dtype=np.int64),
        links=np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64),
    )
    columns.update(overrides)
    return MappedDataset(**columns)


class TestDatasetDigest:
    """The content hash: SHA-256 over framed canonical column bytes."""

    def test_integer_width_does_not_matter(self):
        base = _digest_dataset()
        narrow = _digest_dataset(
            addresses=base.addresses.astype(np.int32),
            asns=base.asns.astype(np.int32),
            links=base.links.astype(np.int32),
        )
        native = _digest_dataset(links=base.links.astype(np.intp))
        assert dataset_digest(narrow) == dataset_digest(base)
        assert dataset_digest(native) == dataset_digest(base)

    @pytest.mark.parametrize("suffix", [".npz", ".json"])
    def test_survives_file_round_trip(self, tmp_path, suffix):
        from repro.datasets.serialize import load_dataset, save_dataset

        base = _digest_dataset()
        save_dataset(base, tmp_path / f"d{suffix}")
        again = load_dataset(tmp_path / f"d{suffix}")
        assert dataset_digest(again) == dataset_digest(base)

    def test_distinguishes_content(self):
        base = _digest_dataset()
        lats = base.lats.copy()
        lats[2] = np.nextafter(lats[2], np.inf)  # one ulp
        links = base.links.copy()
        links[1] = links[1, ::-1]  # one link's endpoints swapped
        variants = [
            _digest_dataset(lats=lats),
            _digest_dataset(label="digest2"),
            _digest_dataset(links=links),
            # The same values, moved between two columns.
            _digest_dataset(lats=base.lons, lons=base.lats),
        ]
        digests = {dataset_digest(v) for v in variants}
        assert len(digests) == len(variants)
        assert dataset_digest(base) not in digests

    def test_empty_links_hash_deterministically(self):
        flat = _digest_dataset(links=np.empty(0, dtype=np.intp))
        paired = _digest_dataset(links=np.empty((0, 2), dtype=np.int64))
        assert dataset_digest(flat) == dataset_digest(paired)
        assert dataset_digest(flat) == dataset_digest(flat)
        assert dataset_digest(flat) != dataset_digest(_digest_dataset())

    def test_framing_separates_columns(self):
        import hashlib

        from repro.obs.report import hash_column

        def digest(*columns):
            h = hashlib.sha256()
            for name, values in columns:
                hash_column(h, name, np.array(values, dtype=np.int64))
            return h.hexdigest()

        # Identical concatenated bytes, split differently.
        assert digest(("a", [1, 2]), ("b", [3])) != digest(
            ("a", [1]), ("b", [2, 3])
        )
        assert digest(("a", [1]), ("b", [2])) != digest(
            ("b", [1]), ("a", [2])
        )


class TestRunReport:
    def test_span_tree_nests_at_least_three_levels(self, observed_run):
        _, _, tracer, _, report = observed_run
        # pipeline -> stage:<mapping> -> geoloc.locate_batch
        assert tracer.max_depth() >= 3
        assert report.span_depth() >= 3
        batch_spans = [
            s for s in report.iter_spans() if s["name"] == "geoloc.locate_batch"
        ]
        assert len(batch_spans) == 4
        assert all(s["attributes"]["batch_size"] > 0 for s in batch_spans)

    def test_geoloc_and_bgp_counters_are_nonzero(self, observed_run):
        _, _, _, registry, report = observed_run
        for name in (
            "geoloc.batches",
            "geoloc.addresses",
            "bgp.lookups",
        ):
            assert report.counter(name) > 0, name
        assert registry.counter_value("geoloc.addresses") == sum(
            v
            for k, v in report.metrics["counters"].items()
            if k.startswith("geoloc.method.")
        )

    def test_report_is_schema_valid_and_roundtrips(self, observed_run, tmp_path):
        *_, report = observed_run
        assert validate_report(report.to_dict()) == []
        path = tmp_path / "run.json"
        write_report(report, path)
        loaded = load_report(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.seed == small_scenario().seed
        assert len(loaded.stage_events) == 10
        assert set(loaded.artifacts) == {
            "IxMapper, Mercator", "IxMapper, Skitter",
            "EdgeScape, Mercator", "EdgeScape, Skitter",
        }

    def test_stage_events_are_sorted_by_start(self, observed_run):
        *_, report = observed_run
        starts = [e["start_s"] for e in report.stage_events]
        assert starts == sorted(starts)
        assert report.stage_events[0]["stage"] == "world"

    def test_artifact_hashes_match_recomputation(self, observed_run):
        _, result, _, _, report = observed_run
        label = "IxMapper, Skitter"
        assert report.artifacts[label] == dataset_digest(result.datasets[label])

    def test_render_report_mentions_key_sections(self, observed_run):
        *_, report = observed_run
        text = render_report(report)
        assert "RUN REPORT" in text
        assert "SPAN TREE" in text
        assert "COUNTERS" in text
        assert "geoloc.batches" in text
        assert "IxMapper, Skitter" in text

    def test_load_rejects_missing_and_invalid(self, tmp_path):
        with pytest.raises(ReportError):
            load_report(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ReportError):
            load_report(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ReportError):
            load_report(wrong)

    def test_validate_pinpoints_problems(self, observed_run):
        *_, report = observed_run
        # Deep copy: to_dict() shares structure with the report, and this
        # test mutates the payload.
        payload = json.loads(json.dumps(report.to_dict()))
        payload["stage_events"][0]["wall_s"] = "fast"
        payload["spans"][0]["children"] = "oops"
        payload["metrics"]["counters"]["bgp.lookups"] = 1.5
        errors = validate_report(payload)
        assert any("wall_s" in e for e in errors)
        assert any("children" in e for e in errors)
        assert any("counters" in e for e in errors)


class TestReportDiff:
    def test_identical_reports_are_clean(self, observed_run):
        *_, report = observed_run
        outcome = diff_reports(report, report)
        assert outcome.clean
        assert outcome.regressions == ()
        assert outcome.drifts == ()
        assert "no regressions" in render_diff(outcome)

    def _copy(self, report: RunReport) -> RunReport:
        return RunReport.from_dict(json.loads(json.dumps(report.to_dict())))

    def test_wall_regression_past_threshold_flagged(self, observed_run):
        *_, report = observed_run
        slowed = self._copy(report)
        for event in slowed.stage_events:
            if event["stage"] == "ground_truth":
                event["wall_s"] = event["wall_s"] * 10 + 1.0
        outcome = diff_reports(report, slowed)
        assert not outcome.clean
        assert any("ground_truth" in line for line in outcome.regressions)
        assert "REGRESSION" in render_diff(outcome)

    def test_small_absolute_slowdowns_are_ignored(self, observed_run):
        *_, report = observed_run
        jittered = self._copy(report)
        for event in jittered.stage_events:
            event["wall_s"] += 0.001  # timing noise, not a regression
        assert diff_reports(report, jittered).clean

    def test_counter_drift_always_flagged(self, observed_run):
        *_, report = observed_run
        drifted = self._copy(report)
        drifted.metrics["counters"]["bgp.misses"] += 1
        outcome = diff_reports(report, drifted)
        assert any("bgp.misses" in line for line in outcome.drifts)

    def test_stage_counter_drift_flagged(self, observed_run):
        *_, report = observed_run
        drifted = self._copy(report)
        drifted.stage_events[1]["counters"]["nodes"] += 7
        outcome = diff_reports(report, drifted)
        assert not outcome.clean

    def test_artifact_change_and_missing_stage_flagged(self, observed_run):
        *_, report = observed_run
        changed = self._copy(report)
        changed.artifacts["IxMapper, Skitter"] = "0" * 64
        changed.stage_events = [
            e for e in changed.stage_events if e["stage"] != "world"
        ]
        outcome = diff_reports(report, changed)
        assert any("IxMapper, Skitter" in line for line in outcome.drifts)
        assert any("disappeared" in line for line in outcome.drifts)
