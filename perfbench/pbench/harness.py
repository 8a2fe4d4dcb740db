"""Workload dispatch and the metric catalogue.

Every workload reports every metric of the catalogue it is asked for.
An end-to-end metric has a meaning on each workload (see
``perfbench/README.md``); a per-layer metric of a layer a workload does
not enter reads 0 there.
"""

from __future__ import annotations

import sys

from pbench.common import Outcome

WORKLOADS = ("paper", "ingest", "cluster")

#: End-to-end metrics (tracing off), reported by every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
]

#: Per-layer metrics of a traced run (``--trace 1``) of the workloads
#: ``BENCHMARK.json`` lists.
PER_LAYER = [
    # paper
    ("runtime.world_s", "s"),
    ("net.ground_truth_s", "s"),
    ("bgp.snapshot_s", "s"),
    ("measure.skitter_s", "s"),
    ("measure.mercator_s", "s"),
    ("geoloc.map_s", "s"),
    ("core.table5_s", "s"),
    ("core.figure4_s", "s"),
    ("core.figures7_10_s", "s"),
    ("core.rest_s", "s"),
    ("core.validate_s", "s"),
    ("core.preference_calls", "count"),
    ("core.preference_distinct_ratio", "ratio"),
    # ingest
    ("ingest.wal.append_ms", "ms"),
    ("serve.index.apply_delta_ms", "ms"),
    ("serve.index.build_s", "s"),
    ("analytics.apply_ms", "ms"),
    ("analytics.publish_ms", "ms"),
    ("analytics.store.record_ms", "ms"),
    ("ingest.publish_ms", "ms"),
    ("obs.dataset_digest_ms", "ms"),
    ("ingest.digests_per_publish", "count"),
    ("datasets.save_npz_ms", "ms"),
    ("datasets.load_npz_ms", "ms"),
    ("analytics.seed_s", "s"),
] + [
    # tracing overhead: traced minus untraced end-to-end numbers
    (f"trace_overhead.{name}", unit) for name, unit in END_TO_END
]

#: Per-layer metrics only the ``cluster`` workload reports, after
#: :data:`PER_LAYER`: the coordinator's front end, response cache and
#: batcher (``serve.cache``, ``serve.batcher``), shard RPCs, the shards'
#: servers and index reads, and the load generator.
CLUSTER_LAYER = [
    ("cluster.front_ms", "ms"),
    ("cluster.coord.handle_target_ms", "ms"),
    ("cluster.coord.cache.hit_ratio", "ratio"),
    ("cluster.coord.batcher.wait_ms", "ms"),
    ("cluster.coord.batcher.mean_batch", "count"),
    ("cluster.coord.batcher.flushes", "count"),
    ("cluster.rpc_ms", "ms"),
    ("cluster.rpcs_per_request", "count"),
    ("cluster.shard.handle_target_ms", "ms"),
    ("cluster.shed", "count"),
    ("cluster.hedges", "count"),
    ("cluster.failovers", "count"),
    ("cluster.spawn_s", "s"),
    ("serve.index.locate_many_ms", "ms"),
    ("serve.index.locate_many_keys", "count"),
    ("serve.index.nearest_ms", "ms"),
    ("serve.index.as_record_ms", "ms"),
    ("client.lateness_p99_ms", "ms"),
    ("client.ceiling_lateness_p99_ms", "ms"),
]


def per_layer(workload: str) -> list[tuple[str, str]]:
    """The per-layer metrics a traced run of ``workload`` prints."""
    return PER_LAYER + CLUSTER_LAYER if workload == "cluster" else PER_LAYER


def _module(workload: str):
    if workload == "cluster":
        from pbench import serving

        return serving
    if workload == "paper":
        from pbench import paper

        return paper
    from pbench import ingest

    return ingest


def run(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    """Run one workload; traced runs also run it untraced for the overhead."""
    module = _module(workload)
    plain = module.run(workload, seed, seconds, traced=False)
    if not traced:
        return plain.outcome
    print(f"{workload}: untraced run done, starting the traced run", file=sys.stderr)
    traced_run = module.run(workload, seed, seconds, traced=True)
    outcome = Outcome(
        attempted=plain.outcome.attempted + traced_run.outcome.attempted,
        failed=plain.outcome.failed + traced_run.outcome.failed,
        problems=plain.outcome.problems + traced_run.outcome.problems,
    )
    units = dict(per_layer(workload))
    for name, value in module.layer_metrics(workload, traced_run).items():
        outcome.put(name, value, units[name])
    for name, unit in END_TO_END:
        delta = traced_run.outcome.metrics[name][0] - plain.outcome.metrics[name][0]
        outcome.put(f"trace_overhead.{name}", delta, unit)
        print(f"{workload}: {name} untraced {plain.outcome.metrics[name][0]:.4g} "
              f"traced {traced_run.outcome.metrics[name][0]:.4g} {unit}", file=sys.stderr)
    for name, unit in per_layer(workload):
        if name in outcome.metrics:
            print(f"{workload}: {name} = {outcome.metrics[name][0]:.6g} {unit}",
                  file=sys.stderr)
    return outcome
