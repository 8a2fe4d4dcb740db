"""Span recorders around the public calls of each layer.

Each ``install_*`` function wraps the calls one workload's layers are
entered through; nothing inside ``src/`` changes.  The serving roles
are installed by ``tracehook/sitecustomize.py`` at interpreter start in
every process of a traced run; the paper and ingest workers call their
installer directly.
"""

from __future__ import annotations

import time

from pbench.spans import Recorder


def _wrap_batcher(rec: Recorder, name: str) -> None:
    """Time from ``MicroBatcher.submit`` until its future resolves."""
    from repro.serve.batcher import MicroBatcher

    original = MicroBatcher.submit

    def submit(self, key):
        parent = rec.current()
        span_id = rec.new_id()
        start = time.perf_counter()
        future = original(self, key)
        future.add_done_callback(
            lambda _f: rec.add(span_id, parent, name, start, time.perf_counter())
        )
        return future

    MicroBatcher.submit = submit


def _wrap_index_reads(rec: Recorder) -> None:
    from repro.serve.index import SnapshotIndex

    original = SnapshotIndex.locate_many

    def locate_many(self, addresses):
        rec.count("serve.index.locate_many_keys", len(addresses))
        return original(self, addresses)

    SnapshotIndex.locate_many = locate_many
    rec.wrap(SnapshotIndex, "locate_many", "serve.index.locate_many")
    rec.wrap(SnapshotIndex, "nearest", "serve.index.nearest")
    rec.wrap(SnapshotIndex, "as_record", "serve.index.as_record")


#: Control-plane targets left out of the request spans.
_CONTROL = ("/healthz", "/stats", "/metrics")


def _wrap_handle_target(rec: Recorder, cls, name: str) -> None:
    """One span per data-plane request, tagged with the caller's trace id."""
    original = cls.handle_target

    def handle_target(self, target, trace_parent=""):
        if target.startswith(_CONTROL):
            return original(self, target, trace_parent)
        token = rec.begin()
        try:
            return original(self, target, trace_parent)
        finally:
            rec.finish(token, name, trace_parent)

    cls.handle_target = handle_target


def install_shard(rec: Recorder) -> None:
    """``repro cluster shard``: the shard's server and its index slice."""
    from repro.cluster.shard import ShardServer
    from repro.serve.server import SnapshotServer

    _wrap_handle_target(rec, SnapshotServer, "cluster.shard.handle_target")
    _wrap_batcher(rec, "cluster.shard.batcher.wait")
    _wrap_index_reads(rec)
    rec.wrap(ShardServer, "_build_partition", "serve.index.build")


def install_coordinator(rec: Recorder) -> None:
    """``repro cluster serve``: coordinator, shard RPCs and spawning."""
    from repro.cluster.client import ShardClient
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.manager import ShardManager

    _wrap_handle_target(rec, ClusterCoordinator, "cluster.coord.handle_target")
    _wrap_batcher(rec, "cluster.coord.batcher.wait")
    rec.wrap(ShardClient, "get", "cluster.rpc")
    rec.wrap(ShardClient, "probe", "cluster.probe")
    rec.wrap(ShardManager, "start", "cluster.spawn")


def install_paper(rec: Recorder) -> None:
    """The paper pipeline: stage telemetry, experiment runners, f(d) calls."""
    from repro.core import experiments, validation
    from repro.runtime import Telemetry

    original_prepare = experiments.prepare_result

    def prepare_result(config, **kwargs):
        if kwargs.get("telemetry") is None:
            kwargs["telemetry"] = Telemetry()
        result = original_prepare(config, **kwargs)
        for event in kwargs["telemetry"].events:
            rec.add(rec.new_id(), 0, f"stage:{event.stage}", event.start_s, event.end_s)
        return result

    experiments.prepare_result = prepare_result
    for name in ("table1", "table3", "table4", "table5", "table6", "figure2",
                 "figure4", "figure5", "figure6", "figures7_to_10", "experiment_x1"):
        rec.wrap(experiments, name, f"core.{name}")
    rec.wrap(validation, "validate_recovery", "core.validate_recovery")

    seen: set[tuple[int, str]] = set()

    def counting(module) -> None:
        original = module.preference_function

        def preference_function(dataset, region, *args, **kwargs):
            rec.count("core.preference_calls")
            key = (id(dataset), region.name)
            if key not in seen:
                seen.add(key)
                rec.count("core.preference_distinct")
            return original(dataset, region, *args, **kwargs)

        module.preference_function = preference_function

    counting(experiments)
    counting(validation)


def install_ingest(rec: Recorder) -> None:
    """The write path: WAL, index patching, publishing, analytics."""
    from repro.analytics import runner as analytics_runner
    from repro.analytics.engine import AnalyticsEngine
    from repro.analytics.store import MetricStore
    from repro.ingest import publisher
    from repro.ingest.wal import WriteAheadLog
    from repro.obs import report
    from repro.serve import index as serve_index
    from repro.serve.index import SnapshotIndex

    rec.wrap(WriteAheadLog, "append_delta", "ingest.wal.append")
    rec.wrap(SnapshotIndex, "apply_delta", "serve.index.apply_delta")
    rec.wrap(SnapshotIndex, "__init__", "serve.index.build")
    rec.wrap(analytics_runner.AnalyticsRunner, "on_apply", "analytics.apply")
    rec.wrap(analytics_runner.AnalyticsRunner, "on_publish", "analytics.publish")
    rec.wrap(MetricStore, "record_generation", "analytics.store.record")
    rec.wrap(AnalyticsEngine, "__init__", "analytics.seed")
    rec.wrap(publisher.SnapshotPublisher, "publish", "ingest.publish")
    for module in (publisher, serve_index, report):
        rec.wrap(module, "dataset_digest", "obs.dataset_digest")
    rec.wrap(publisher, "save_dataset_npz", "datasets.save_npz")
    rec.wrap(publisher, "load_dataset_npz", "datasets.load_npz")


#: ``repro`` subcommands whose processes get recorders in a traced run.
ROLES = {
    ("cluster", "serve"): ("coordinator", install_coordinator),
    ("cluster", "shard"): ("shard", install_shard),
}


def role_of(argv: list[str]) -> tuple[str, object] | None:
    """The role of a ``python -m repro.cli ...`` command line, if traced."""
    if "repro.cli" not in argv:
        return None
    rest = argv[argv.index("repro.cli") + 1:]
    for words, role in ROLES.items():
        if tuple(rest[: len(words)]) == words:
            return role
    return None
