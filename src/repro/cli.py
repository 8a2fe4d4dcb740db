"""Command-line experiment driver and query-service front end.

Subcommands:

- ``repro run`` (the default when no subcommand is given, so the
  original flag-only invocation keeps working): run the pipeline once
  and print the requested paper artefacts.  ``--report out.json``
  additionally captures the full observability bundle — stage events,
  span tree, metrics, artifact hashes — as a machine-readable
  :class:`~repro.obs.report.RunReport`.
- ``repro report``: ``show`` pretty-prints a saved report; ``diff``
  compares two reports and exits nonzero on stage wall-time regressions
  past ``--threshold`` or any counter/artifact drift.  ``diff`` also
  accepts two *sweep* reports (``repro sweep report --out``), where the
  threshold is a multiple of the bootstrap CI half-width instead.
- ``repro sweep``: fault-tolerant experiment campaigns.  ``run``
  executes a declarative spec grid on a process pool, persisting every
  trial into a SQLite result store; ``resume`` continues an interrupted
  campaign, skipping completed trials; ``status`` shows live progress
  from another terminal (``--follow`` tails worker heartbeats);
  ``trace`` prints the stitched cross-process span tree of a campaign;
  ``report`` aggregates per-cell bootstrap confidence intervals and
  the generator ranking.
- ``repro snapshot``: build one mapped dataset and export it
  (``json``/``npz``/CSV pair) for sharing or serving.
- ``repro serve``: load a snapshot (or build one in-process) and run
  the concurrent query server (:mod:`repro.serve`) until interrupted.
- ``repro query``: one-shot client call against a running server,
  e.g. ``repro query http://127.0.0.1:8765 locate address=1234``.
- ``repro bench``: ``history`` renders the benchmark trend table from
  the ``BENCH_*.json`` / ``BENCH_history.jsonl`` records the suite in
  ``benchmarks/`` writes, flagging direction-aware regressions.
- ``repro cluster``: sharded serving (:mod:`repro.cluster`).  ``serve``
  spawns N-range x R-replica shard workers behind a scatter-gather
  coordinator; ``shard`` is the worker entry point; ``status`` prints a
  running coordinator's replica health; ``reload`` hot-swaps the fleet
  onto a new snapshot with zero dropped requests.
- ``repro analytics``: continuous analytics (:mod:`repro.analytics`)
  over streaming-ingest generations.  ``run`` replays an ingest WAL
  offline into the generation-keyed metric store; ``status`` shows the
  latest analyzed generation and recorded drift alerts; ``history``
  prints one metric's per-generation series; ``diff`` compares two
  analyzed generations metric by metric.  ``repro ingest run
  --analytics`` maintains the same store live, on every published
  generation.

``run``, ``serve``, and ``sweep run``/``resume`` all take
``--profile-sampling OUT.collapsed`` to run the stdlib sampling
profiler (:mod:`repro.obs.sampling`) for the duration and write a
collapsed-stack report — direct flamegraph input.

``python -m repro.cli run --scale small --experiments table1 table5``
runs the pipeline once and prints the requested artefacts; ``all`` (the
default) prints every table and figure summary.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.config import default_scenario, large_scenario, small_scenario
from repro.errors import ReportError, ReproError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    TraceSampler,
    build_run_report,
    diff_reports,
    get_logger,
    load_report,
    render_diff,
    render_report,
    setup_logging,
    use_metrics,
    use_tracer,
    write_report,
)
from repro.obs import span as obs_span
from repro.obs.report import DEFAULT_MIN_WALL_S, DEFAULT_WALL_THRESHOLD
from repro.runtime import Telemetry

if TYPE_CHECKING:
    from repro.datasets.pipeline import PipelineResult

_EXPERIMENT_NAMES = (
    "table1",
    "table3",
    "table4",
    "table5",
    "table6",
    "figure2",
    "figure4",
    "figure5",
    "figure6",
    "figures7-10",
    "x1",
)

#: Exit codes of ``repro report diff`` and ``repro bench history --check``.
EXIT_OK = 0
EXIT_DIFF = 1
EXIT_INVALID = 2


def _profiling_args(parser: argparse.ArgumentParser) -> None:
    """``--profile-sampling``/``--sampling-hz``, shared by run/serve/sweep."""
    parser.add_argument(
        "--profile-sampling",
        default=None,
        metavar="OUT.collapsed",
        help="sample all thread stacks for the duration and write a "
        "collapsed-stack report (flamegraph input) to this path "
        "(bare filenames land under profiles/, not the working dir)",
    )
    parser.add_argument(
        "--sampling-hz",
        type=float,
        default=97.0,
        help="sampling frequency for --profile-sampling "
        "(default %(default)s Hz; prime, to dodge periodic work)",
    )


@contextmanager
def _sampling_profiler(args: argparse.Namespace):
    """Run the sampling profiler around a block when requested.

    The report is written even when the block raises (the profile of an
    interrupted serve loop is exactly what one wants to look at).
    """
    if getattr(args, "profile_sampling", None) is None:
        yield
        return
    from repro.obs import ProfilerError, SamplingProfiler

    destination = Path(args.profile_sampling)
    if destination.parent == Path("."):
        # A bare filename goes under profiles/ (gitignored) instead of
        # littering the working directory.
        destination = Path("profiles") / destination
    profiler = SamplingProfiler(hz=args.sampling_hz)
    profiler.start()
    try:
        yield
    finally:
        profiler.stop()
        try:
            path = profiler.write(destination)
        except ProfilerError as exc:
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(
                f"sampling profile ({profiler.samples} samples at "
                f"{profiler.hz:g} Hz) written to {path}",
                file=sys.stderr,
            )


def _render(name: str, result: PipelineResult, mapper: str) -> str:
    from repro.core import experiments, report

    if name == "table1":
        return report.render_table1(experiments.table1(result))
    if name == "table3":
        return report.render_table3(experiments.table3(result, mapper))
    if name == "table4":
        return report.render_table4(experiments.table4(result, mapper))
    if name == "table5":
        return report.render_table5(experiments.table5(result, mapper))
    if name == "table6":
        return report.render_table6(experiments.table6(result, mapper))
    if name == "figure2":
        return report.render_figure2(experiments.figure2(result, mapper))
    if name in ("figure4", "figure5", "figure6"):
        panels = experiments.figure4(result, mapper)
        if name == "figure4":
            return report.render_figure4(panels)
        if name == "figure5":
            return report.render_figure5(experiments.figure5(panels))
        return report.render_figure6(experiments.figure6(panels))
    if name == "figures7-10":
        return report.render_as_geography(
            experiments.figures7_to_10(result, mapper)
        )
    if name == "x1":
        return report.render_fractal(experiments.experiment_x1(result))
    raise ReproError(f"unknown experiment {name!r}")


def _run_main(argv: list[str]) -> int:
    """The ``repro run`` subcommand (also the bare-invocation default)."""
    # The analyses and their renderers (used by ``_render``) load here, not
    # at CLI import: no other subcommand runs the pipeline, and no module
    # may compile between the first pipeline stage and the last table.
    from repro.core import experiments, report  # noqa: F401

    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Reproduce tables and figures of Lakhina et al. (IMC 2002)",
    )
    parser.add_argument(
        "--scale",
        choices=("small", "default", "large"),
        default="small",
        help="scenario size (small: seconds; default: minutes; large: ~100k routers)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override RNG seed")
    parser.add_argument(
        "--mapper",
        choices=("IxMapper", "EdgeScape"),
        default="IxMapper",
        help="geolocation tool to analyse (EdgeScape = appendix variants)",
    )
    parser.add_argument(
        "--experiments",
        nargs="+",
        default=["all"],
        help=f"which artefacts to print: all, or any of {', '.join(_EXPERIMENT_NAMES)}",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads for independent pipeline stages (default 1; "
        "results are identical for any value)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="artifact-cache directory; warm runs skip unchanged stages",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage telemetry table to stderr",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="OUT.json",
        help="write a structured run report (stage events, span tree, "
        "metrics, artifact hashes) to this path",
    )
    _profiling_args(parser)
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="emit structured JSON logs to stderr",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    setup_logging(args.verbose)
    log = get_logger("cli")

    factory = {
        "small": small_scenario,
        "default": default_scenario,
        "large": large_scenario,
    }[args.scale]
    config = factory() if args.seed is None else factory(args.seed)

    wanted = (
        list(_EXPERIMENT_NAMES)
        if "all" in args.experiments
        else args.experiments
    )
    unknown = [name for name in wanted if name not in _EXPERIMENT_NAMES]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    start = time.time()
    print(f"running pipeline (scale={args.scale}, seed={config.seed})...",
          file=sys.stderr)
    log.info(
        "run starting",
        extra={"scale": args.scale, "seed": config.seed, "jobs": args.jobs},
    )
    observing = args.report is not None
    telemetry = Telemetry() if (args.profile or observing) else None
    tracer = Tracer() if observing else None
    registry = MetricsRegistry() if observing else None
    outputs: list[tuple[str, str]] = []
    with ExitStack() as stack:
        stack.enter_context(_sampling_profiler(args))
        if observing:
            stack.enter_context(use_tracer(tracer))
            stack.enter_context(use_metrics(registry))
            stack.enter_context(
                obs_span(
                    "run",
                    scale=args.scale,
                    seed=config.seed,
                    mapper=args.mapper,
                    jobs=args.jobs,
                )
            )
        try:
            result = experiments.prepare_result(
                config,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                telemetry=telemetry,
            )
        except ReproError as exc:
            print(f"error: pipeline failed: {exc}", file=sys.stderr)
            return 1
        print(f"pipeline done in {time.time() - start:.1f}s", file=sys.stderr)
        for name in wanted:
            try:
                outputs.append((name, _render(name, result, args.mapper)))
            except ReproError as exc:
                outputs.append(
                    (name, f"[{name} unavailable at this scale: {exc}]")
                )
    if telemetry is not None and args.profile:
        print(telemetry.render_profile(), file=sys.stderr)
    if observing:
        run_report = build_run_report(
            config=config,
            result=result,
            telemetry=telemetry,
            tracer=tracer,
            metrics=registry,
            argv=["run", *argv],
        )
        try:
            write_report(run_report, args.report)
        except ReportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"run report written to {args.report}", file=sys.stderr)
        log.info("run report written", extra={"path": args.report})

    for _, text in outputs:
        print(text)
        print()
    return 0


def _report_main(argv: list[str]) -> int:
    """The ``repro report`` subcommand: show or diff saved run reports."""
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Inspect and compare structured run reports",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    show = commands.add_parser("show", help="pretty-print one run report")
    show.add_argument("path", help="report JSON file")
    diff = commands.add_parser(
        "diff",
        help="compare two run reports; exit 1 on wall-time regressions "
        "past the threshold or any counter/artifact drift",
    )
    diff.add_argument("old", help="baseline report JSON file")
    diff.add_argument("new", help="candidate report JSON file")
    diff.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="regression threshold: fractional stage slowdown for run "
        f"reports (default {DEFAULT_WALL_THRESHOLD}), or the multiple "
        "of the bootstrap CI half-width a metric mean may shift for "
        "sweep reports (default 1.0)",
    )
    diff.add_argument(
        "--min-wall-s",
        type=float,
        default=DEFAULT_MIN_WALL_S,
        help="run reports only: ignore slowdowns smaller than this many "
        "seconds (default %(default)ss)",
    )
    args = parser.parse_args(argv)
    try:
        if args.command == "show":
            print(render_report(load_report(args.path)))
            return EXIT_OK
        from repro.sweep.aggregate import (
            SWEEP_REPORT_SCHEMA,
            diff_sweep_reports,
            load_sweep_report,
        )

        schemas = [_peek_schema(args.old), _peek_schema(args.new)]
        if SWEEP_REPORT_SCHEMA in schemas:
            if schemas[0] != schemas[1]:
                print(
                    "error: cannot diff a sweep report against a run report",
                    file=sys.stderr,
                )
                return EXIT_INVALID
            outcome = diff_sweep_reports(
                load_sweep_report(args.old),
                load_sweep_report(args.new),
                threshold=args.threshold if args.threshold is not None else 1.0,
            )
        else:
            outcome = diff_reports(
                load_report(args.old),
                load_report(args.new),
                wall_threshold=(
                    args.threshold
                    if args.threshold is not None
                    else DEFAULT_WALL_THRESHOLD
                ),
                min_wall_s=args.min_wall_s,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(render_diff(outcome))
    return EXIT_OK if outcome.clean else EXIT_DIFF


def _peek_schema(path: str) -> str | None:
    """The ``schema`` field of a report file, without full validation."""
    import json as _json

    try:
        with open(path, encoding="utf-8") as handle:
            payload = _json.load(handle)
    except (OSError, ValueError):
        return None
    return payload.get("schema") if isinstance(payload, dict) else None


def _snapshot_common_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``snapshot`` and ``serve`` for in-process builds."""
    parser.add_argument(
        "--scale",
        choices=("small", "default", "large"),
        default="small",
        help="scenario size to build when no snapshot file is given",
    )
    parser.add_argument("--seed", type=int, default=None, help="override RNG seed")
    parser.add_argument(
        "--mapper",
        choices=("IxMapper", "EdgeScape"),
        default="IxMapper",
        help="geolocation tool of the exported dataset",
    )
    parser.add_argument(
        "--measurement",
        choices=("Skitter", "Mercator"),
        default="Skitter",
        help="measurement campaign of the exported dataset",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="pipeline worker threads"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="artifact-cache directory for the pipeline build",
    )


def _build_dataset(args: argparse.Namespace):
    """Run the pipeline and pick the requested (mapper, measurement) row."""
    from repro.core.experiments import prepare_result

    factory = {
        "small": small_scenario,
        "default": default_scenario,
        "large": large_scenario,
    }[args.scale]
    config = factory() if args.seed is None else factory(args.seed)
    print(
        f"building snapshot (scale={args.scale}, seed={config.seed})...",
        file=sys.stderr,
    )
    result = prepare_result(config, jobs=args.jobs, cache_dir=args.cache_dir)
    return result.dataset(args.mapper, args.measurement)


def _snapshot_main(argv: list[str]) -> int:
    """The ``repro snapshot`` subcommand: build and export one dataset."""
    from repro.datasets.serialize import save_dataset
    from repro.obs.report import dataset_digest

    parser = argparse.ArgumentParser(
        prog="repro snapshot",
        description="Build one mapped dataset and export it to a file",
    )
    _snapshot_common_args(parser)
    parser.add_argument(
        "--out", required=True, metavar="PATH", help="output file or CSV directory"
    )
    parser.add_argument(
        "--format",
        choices=("auto", "json", "npz", "csv"),
        default="auto",
        help="serialisation format (auto: by extension)",
    )
    args = parser.parse_args(argv)
    try:
        dataset = _build_dataset(args)
        save_dataset(dataset, args.out, format=args.format)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {dataset.label!r} ({dataset.n_nodes} nodes, "
        f"{dataset.n_links} links) to {args.out} "
        f"[{dataset_digest(dataset)[:12]}]",
        file=sys.stderr,
    )
    return 0


def _serve_main(argv: list[str]) -> int:
    """The ``repro serve`` subcommand: run the snapshot query server."""
    from repro.datasets.serialize import load_dataset
    from repro.serve import SnapshotIndex, SnapshotServer

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve geo/AS queries over one snapshot "
        "(see README 'Serving' for endpoints)",
    )
    parser.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="snapshot file (json/npz) or CSV directory; "
        "omit to build one in-process",
    )
    parser.add_argument(
        "--format",
        choices=("auto", "json", "npz", "csv"),
        default="auto",
        help="snapshot format (auto: by extension)",
    )
    _snapshot_common_args(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8765, help="bind port (0 picks a free one)"
    )
    parser.add_argument(
        "--cache-size", type=int, default=8192, help="response-cache entries"
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="concurrent requests before shedding with 503",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=4096,
        help="bounded locate-queue depth before shedding",
    )
    parser.add_argument(
        "--max-batch", type=int, default=512, help="micro-batch flush size"
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="micro-batch coalescing window (latency cost of batching)",
    )
    parser.add_argument(
        "--stats-report",
        default=None,
        metavar="OUT.json",
        help="write a RunReport-compatible stats snapshot on shutdown",
    )
    parser.add_argument(
        "--access-log",
        default=None,
        metavar="OUT.jsonl",
        help="append per-request access events (endpoint, status, "
        "latency, trace id) as JSON lines to this file",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of requests that get a trace id in the access "
        "log (default %(default)s; 0 disables tracing entirely)",
    )
    _profiling_args(parser)
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="structured JSON logs"
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.trace_sample <= 1.0:
        parser.error("--trace-sample must be in [0, 1]")

    setup_logging(args.verbose)
    log = get_logger("serve")
    try:
        if args.snapshot is not None:
            dataset = load_dataset(args.snapshot, format=args.format)
        else:
            dataset = _build_dataset(args)
        index = SnapshotIndex(dataset)
        bus = None
        if args.access_log is not None:
            from repro.obs import JsonlSink, TelemetryBus

            bus = TelemetryBus()
            bus.add_sink(JsonlSink(args.access_log))
        tracer = Tracer() if args.trace_sample > 0.0 else None
        sampler = (
            TraceSampler(args.trace_sample)
            if 0.0 < args.trace_sample < 1.0
            else None
        )
        server = SnapshotServer(
            index,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            max_inflight=args.max_inflight,
            max_pending=args.max_pending,
            max_batch=args.max_batch,
            batch_window_s=args.batch_window_ms / 1e3,
            tracer=tracer,
            bus=bus,
            trace_sampler=sampler,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    server.start()
    # Parsed by scripts/serve_smoke.py — keep the line format stable.
    print(f"serving {dataset.label!r} on {server.url}", flush=True)
    log.info(
        "server started",
        extra={"url": server.url, "snapshot_hash": index.snapshot_hash},
    )
    try:
        with _sampling_profiler(args):
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        stats = server.stats()
        print(
            f"served {sum(v for k, v in stats['metrics']['counters'].items() if k.startswith('serve.requests.'))} "
            f"requests, cache hit ratio {stats['cache']['hit_ratio']:.2f}",
            file=sys.stderr,
        )
        if args.stats_report is not None:
            try:
                write_report(server.stats_report(), args.stats_report)
                print(
                    f"stats report written to {args.stats_report}",
                    file=sys.stderr,
                )
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    return 0


def _query_main(argv: list[str]) -> int:
    """The ``repro query`` subcommand: one-shot client calls."""
    import json as _json

    from repro.serve import SnapshotClient
    from repro.serve.client import QueryError

    parser = argparse.ArgumentParser(
        prog="repro query",
        description="Query a running snapshot server once and print the JSON",
    )
    parser.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8765")
    parser.add_argument(
        "endpoint",
        help="endpoint path, e.g. healthz, stats, locate, as/64512, near",
    )
    parser.add_argument(
        "params",
        nargs="*",
        metavar="key=value",
        help="query parameters, e.g. address=1234 lat=40 lon=-100 k=3",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, help="request timeout seconds"
    )
    args = parser.parse_args(argv)
    params: dict[str, str] = {}
    for pair in args.params:
        key, sep, value = pair.partition("=")
        if not sep:
            parser.error(f"parameters must be key=value, got {pair!r}")
        params[key] = value
    client = SnapshotClient(args.url, timeout_s=args.timeout)
    try:
        payload = client.get(args.endpoint, **params)
    except QueryError as exc:
        print(_json.dumps(exc.payload, indent=2))
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(payload, indent=2))
    return 0


def _cluster_main(argv: list[str]) -> int:
    """The ``repro cluster`` subcommand family."""
    verbs = {
        "serve": _cluster_serve_main,
        "shard": _cluster_shard_main,
        "status": _cluster_status_main,
        "reload": _cluster_reload_main,
    }
    if not argv or argv[0] not in verbs:
        print(
            "usage: repro cluster {serve,shard,status,reload} ...",
            file=sys.stderr,
        )
        return 2
    return verbs[argv[0]](argv[1:])


def _cluster_serve_main(argv: list[str]) -> int:
    """Spawn a shard fleet and run the coordinator in front of it."""
    from repro.cluster import ClusterCoordinator, ShardManager, build_routing

    parser = argparse.ArgumentParser(
        prog="repro cluster serve",
        description="Serve one snapshot from a sharded fleet: N address "
        "ranges x R replicas behind a scatter-gather coordinator",
    )
    parser.add_argument(
        "--snapshot", required=True, metavar="PATH", help="snapshot file"
    )
    parser.add_argument(
        "--ranges", type=int, default=2, help="shard ranges (default 2)"
    )
    parser.add_argument(
        "--replicas", type=int, default=2, help="replicas per range (default 2)"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8770, help="coordinator port (0 = any)"
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=5.0,
        help="per-shard request timeout seconds",
    )
    parser.add_argument(
        "--hedge-delay-ms",
        type=float,
        default=50.0,
        help="delay before hedging a slow shard request to a replica",
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        default=0.5,
        help="replica health-probe interval seconds",
    )
    parser.add_argument(
        "--access-log",
        default=None,
        metavar="OUT.jsonl",
        help="append coordinator access events as JSON lines",
    )
    parser.add_argument(
        "--analytics-db",
        default=None,
        metavar="PATH",
        help="serve /analytics/latest and /analytics/history from this "
        "metric store (written by 'repro ingest run --analytics')",
    )
    parser.add_argument(
        "--analytics-campaign",
        default="ingest",
        metavar="NAME",
        help="campaign to serve from the metric store (default %(default)s)",
    )
    args = parser.parse_args(argv)

    bus = None
    if args.access_log is not None:
        from repro.obs import JsonlSink, TelemetryBus

        bus = TelemetryBus()
        bus.add_sink(JsonlSink(args.access_log))
    manager = ShardManager(
        args.snapshot,
        n_ranges=args.ranges,
        replicas=args.replicas,
        host=args.host,
    )
    try:
        urls_by_slot = manager.start()
        # Parsed by scripts/cluster_smoke.py — keep these formats stable.
        for shard in manager.shards:
            print(
                f"shard slot={shard.slot} replica={shard.replica} "
                f"pid={shard.pid} range={shard.range.label()} "
                f"on {shard.url}",
                flush=True,
            )
        routing = build_routing(manager.ranges, urls_by_slot)
        coordinator = ClusterCoordinator(
            routing,
            host=args.host,
            port=args.port,
            shard_timeout_s=args.shard_timeout,
            hedge_delay_s=args.hedge_delay_ms / 1e3,
            health_interval_s=args.health_interval,
            bus=bus,
            analytics_db=args.analytics_db,
            analytics_campaign=args.analytics_campaign,
        )
    except ReproError as exc:
        manager.stop_all()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    coordinator.start()
    print(
        f"cluster coordinator on {coordinator.url} "
        f"({args.ranges} ranges x {args.replicas} replicas, "
        f"snapshot {routing.snapshot_hash[:12]})",
        flush=True,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
        manager.stop_all()
    return 0


def _cluster_shard_main(argv: list[str]) -> int:
    """One shard worker process (spawned by ``cluster serve``)."""
    import os

    from repro.cluster import ShardRange, ShardServer

    parser = argparse.ArgumentParser(
        prog="repro cluster shard",
        description="Serve one address range of a snapshot "
        "(internal: spawned by `repro cluster serve`)",
    )
    parser.add_argument("--snapshot", required=True, metavar="PATH")
    parser.add_argument("--lo", type=int, default=None, help="range lower bound")
    parser.add_argument(
        "--hi", type=int, default=None, help="range upper bound (exclusive)"
    )
    parser.add_argument("--gen", type=int, default=1, help="initial generation")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        server = ShardServer(
            args.snapshot,
            args.lo,
            args.hi,
            gen=args.gen,
            host=args.host,
            port=args.port,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    server.start()
    rng = ShardRange(args.lo, args.hi)
    # Parsed by ShardManager (BANNER_RE) — keep the format stable.
    print(
        f"shard pid={os.getpid()} gen={args.gen} range={rng.label()} "
        f"on {server.url}",
        flush=True,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cluster_status_main(argv: list[str]) -> int:
    """Pretty-print a running coordinator's ``/stats``."""
    import json as _json

    from repro.serve import SnapshotClient

    parser = argparse.ArgumentParser(prog="repro cluster status")
    parser.add_argument("url", help="coordinator base URL")
    parser.add_argument("--timeout", type=float, default=10.0)
    args = parser.parse_args(argv)
    client = SnapshotClient(args.url, timeout_s=args.timeout)
    try:
        stats = client.stats()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cluster = stats.get("cluster", {})
    print(
        f"gen {cluster.get('gen')} snapshot "
        f"{str(cluster.get('snapshot_hash'))[:12]}"
    )
    for slot in cluster.get("ranges", []):
        print(f"range {slot['range']}: {slot['n_healthy']} healthy")
        for replica in slot["replicas"]:
            state = "up" if replica["healthy"] else "DOWN"
            print(
                f"  {replica['url']} {state} "
                f"ewma {replica['ewma_latency_ms']}ms "
                f"({replica['requests']} requests)"
            )
    print(_json.dumps({"cache": stats.get("cache")}, indent=2))
    return 0


def _cluster_reload_main(argv: list[str]) -> int:
    """Hot-swap a running cluster onto a new snapshot."""
    import json as _json
    from pathlib import Path

    from repro.serve import SnapshotClient

    parser = argparse.ArgumentParser(prog="repro cluster reload")
    parser.add_argument("url", help="coordinator base URL")
    parser.add_argument("snapshot", help="new snapshot file")
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="staging can take a while on big snapshots",
    )
    args = parser.parse_args(argv)
    client = SnapshotClient(args.url, timeout_s=args.timeout)
    try:
        result = client.get(
            "admin/reload", snapshot=str(Path(args.snapshot).resolve())
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(result, indent=2))
    return 0


def _ingest_main(argv: list[str]) -> int:
    """The ``repro ingest`` subcommand family."""
    verbs = {
        "run": _ingest_run_main,
        "status": _ingest_status_main,
        "replay": _ingest_replay_main,
    }
    if not argv or argv[0] not in verbs:
        print("usage: repro ingest {run,status,replay} ...", file=sys.stderr)
        return 2
    return verbs[argv[0]](argv[1:])


def _ingest_run_main(argv: list[str]) -> int:
    """Run the streaming ingester against a base snapshot."""
    import os
    from pathlib import Path

    import numpy as np

    from repro.datasets.serialize import load_dataset
    from repro.ingest import Ingester, IngestHttpServer, load_delta
    from repro.measure.stream import DeltaStream
    from repro.obs.metrics import MetricsRegistry, use_metrics

    parser = argparse.ArgumentParser(
        prog="repro ingest run",
        description="Journal measurement deltas to a WAL, apply them "
        "batch by batch, and publish fresh snapshot generations "
        "(see README 'Streaming ingestion')",
    )
    parser.add_argument(
        "--base", required=True, metavar="PATH", help="base snapshot file"
    )
    parser.add_argument(
        "--out", required=True, metavar="DIR",
        help="ingest state directory (WAL, checkpoint, generations)",
    )
    parser.add_argument(
        "--spool", default=None, metavar="DIR",
        help="poll this directory for delta .npz files "
        "(journaled then removed); omit for synthetic deltas",
    )
    parser.add_argument(
        "--coordinator", default=None, metavar="URL",
        help="cluster coordinator to hot-reload on every publish",
    )
    parser.add_argument(
        "--publish-batches", type=int, default=3,
        help="publish after this many pending batches (default %(default)s)",
    )
    parser.add_argument(
        "--publish-age-s", type=float, default=10.0,
        help="publish when the oldest pending batch is this old",
    )
    parser.add_argument(
        "--batches", type=int, default=0, metavar="N",
        help="synthesize N delta batches, publish, and exit "
        "(0 = run forever on the spool)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="synthetic-stream RNG seed"
    )
    parser.add_argument(
        "--interval-s", type=float, default=0.2,
        help="spool poll / synthetic emit interval seconds",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="expose /metrics, /healthz, /status on this port (0 = any)",
    )
    parser.add_argument(
        "--no-sync", action="store_true",
        help="skip fsync per WAL append (faster, loses the "
        "acknowledged-write crash guarantee)",
    )
    parser.add_argument(
        "--analytics", action="store_true",
        help="compute per-generation paper metrics and store them in "
        "the analytics database on every publish",
    )
    parser.add_argument(
        "--analytics-db", default=None, metavar="PATH",
        help="metric store path (default: <out>/analytics.db)",
    )
    parser.add_argument(
        "--analytics-campaign", default="ingest", metavar="NAME",
        help="campaign name in the metric store (default %(default)s)",
    )
    parser.add_argument(
        "--drift-metrics", default=None, metavar="A,B",
        help="comma-separated metrics to watch for drift (default: all)",
    )
    parser.add_argument(
        "--drift-warmup", type=int, default=4,
        help="generations consumed before drift scoring (default %(default)s)",
    )
    parser.add_argument(
        "--drift-h", type=float, default=6.0,
        help="CUSUM alert threshold (default %(default)s)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="structured JSON logs"
    )
    args = parser.parse_args(argv)
    if args.spool is None and args.batches <= 0:
        parser.error("either --spool DIR or --batches N is required")

    setup_logging(args.verbose)
    log = get_logger("ingest")
    registry = MetricsRegistry()
    http_server = None
    with use_metrics(registry):
        try:
            ingester = Ingester(
                args.base,
                args.out,
                publish_batches=args.publish_batches,
                publish_age_s=args.publish_age_s,
                coordinator_url=args.coordinator,
                sync=not args.no_sync,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.analytics or args.analytics_db is not None:
            from repro.analytics import (
                DEFAULT_DB_NAME,
                AnalyticsRunner,
                DriftConfig,
            )

            db = (
                Path(args.out) / DEFAULT_DB_NAME
                if args.analytics_db is None
                else Path(args.analytics_db)
            )
            watch = (
                None
                if args.drift_metrics is None
                else [m for m in args.drift_metrics.split(",") if m]
            )
            runner = AnalyticsRunner(
                db,
                args.analytics_campaign,
                drift_config=DriftConfig(
                    warmup=args.drift_warmup, threshold=args.drift_h
                ),
                drift_metrics=watch,
            )
            runner.attach(ingester)
            print(f"ingest analytics db={db}", flush=True)
        status = ingester.status()
        # Parsed by scripts/ingest_smoke.py — keep the formats stable.
        print(
            f"ingest pid={os.getpid()} wal_seq={status['applied_seq']} "
            f"gen={status['gen']} hash={status['snapshot_hash'][:12]} "
            f"out={args.out}",
            flush=True,
        )
        if args.metrics_port is not None:
            http_server = IngestHttpServer(
                ingester, port=args.metrics_port
            ).start()
            print(
                f"ingest metrics on http://127.0.0.1:{http_server.port}",
                flush=True,
            )
        if ingester.replayed_batches:
            log.info(
                "resumed from WAL",
                extra={"replayed": ingester.replayed_batches},
            )
            ingester.maybe_publish(force=True)

        stream = None
        if args.spool is None:
            stream = DeltaStream(
                ingester.index.dataset, np.random.default_rng(args.seed)
            )
        spool = None if args.spool is None else Path(args.spool)
        if spool is not None:
            spool.mkdir(parents=True, exist_ok=True)
        last_published = ingester.published_seq
        remaining = args.batches
        exit_code = 0
        try:
            while True:
                if spool is not None:
                    for path in sorted(spool.glob("*.npz")):
                        try:
                            result = ingester.submit(load_delta(path))
                        except ReproError as exc:
                            bad = path.with_suffix(".bad")
                            path.rename(bad)
                            log.warning(
                                "rejected delta",
                                extra={"file": str(bad), "error": str(exc)},
                            )
                            print(
                                f"error: rejected {path.name}: {exc}",
                                file=sys.stderr,
                            )
                            continue
                        path.unlink(missing_ok=True)
                        log.info("ingested", extra=result)
                elif remaining > 0:
                    ingester.submit(stream.next_batch())
                    remaining -= 1
                ingester.maybe_publish(force=spool is None and remaining == 0)
                if ingester.published_seq != last_published:
                    last_published = ingester.published_seq
                    st = ingester.status()
                    print(
                        f"ingest published seq={st['published_seq']} "
                        f"gen={st['gen']} hash={st['snapshot_hash'][:12]}",
                        flush=True,
                    )
                if spool is None and remaining == 0:
                    break
                time.sleep(args.interval_s)
        except KeyboardInterrupt:
            ingester.maybe_publish(force=True)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            exit_code = 1
        finally:
            if http_server is not None:
                http_server.stop()
            ingester.close()
            st = ingester.status()
            print(
                f"ingested {st['applied_seq']} batches, "
                f"published seq {st['published_seq']}, "
                f"gen {st['gen']}",
                file=sys.stderr,
            )
        return exit_code


def _ingest_status_main(argv: list[str]) -> int:
    """Print WAL and checkpoint facts for an ingest directory."""
    import json as _json
    from pathlib import Path

    from repro.ingest import WriteAheadLog

    parser = argparse.ArgumentParser(prog="repro ingest status")
    parser.add_argument(
        "--out", required=True, metavar="DIR", help="ingest state directory"
    )
    parser.add_argument(
        "--analytics-db", default=None, metavar="PATH",
        help="metric store to report lag against "
        "(default: <out>/analytics.db when present)",
    )
    parser.add_argument(
        "--analytics-campaign", default="ingest", metavar="NAME",
        help="campaign in the metric store (default %(default)s)",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    wal_path = out / "ingest.wal"
    if not wal_path.exists():
        print(f"error: no WAL at {wal_path}", file=sys.stderr)
        return 1
    try:
        with WriteAheadLog(wal_path, sync=False) as wal:
            facts: dict = {"wal": wal.stats()}
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    checkpoint = out / "checkpoint.json"
    if checkpoint.exists():
        facts["checkpoint"] = _json.loads(checkpoint.read_text())
    facts["generations"] = sorted(p.name for p in out.glob("gen-*.npz"))
    # Analytics lag: how far the metric series trails the live state.
    # The WAL's last seq is the applied generation minus the base gen,
    # so current_gen = checkpoint gen + unpublished suffix when a
    # checkpoint exists, else 1 + last_seq over a fresh base.
    from repro.analytics import DEFAULT_DB_NAME, analytics_lag

    db = (
        out / DEFAULT_DB_NAME
        if args.analytics_db is None
        else Path(args.analytics_db)
    )
    current_gen = 1 + facts["wal"]["last_seq"]
    if "checkpoint" in facts:
        checkpointed = facts["checkpoint"]
        current_gen = int(checkpointed["gen"]) + (
            facts["wal"]["last_seq"] - int(checkpointed["seq"])
        )
    analytics = analytics_lag(db, args.analytics_campaign, current_gen)
    if analytics is not None:
        facts["analytics"] = analytics
    print(_json.dumps(facts, indent=2))
    return EXIT_OK


def _ingest_replay_main(argv: list[str]) -> int:
    """Rebuild the final snapshot offline by replaying a WAL."""
    from repro.datasets.serialize import load_dataset, save_dataset
    from repro.ingest import WriteAheadLog, patch_dataset
    from repro.obs.report import dataset_digest

    parser = argparse.ArgumentParser(
        prog="repro ingest replay",
        description="Apply every journaled delta to a base snapshot and "
        "print the resulting content hash (offline audit)",
    )
    parser.add_argument("--base", required=True, metavar="PATH")
    parser.add_argument("--wal", required=True, metavar="PATH")
    parser.add_argument(
        "--after-seq", type=int, default=0,
        help="replay only records with seq > this (default 0: all)",
    )
    parser.add_argument(
        "--out", default=None, metavar="OUT.npz",
        help="also write the replayed snapshot here",
    )
    args = parser.parse_args(argv)
    try:
        dataset = load_dataset(args.base)
        n_batches = 0
        with WriteAheadLog(args.wal, sync=False) as wal:
            for _seq, batch in wal.replay_deltas(args.after_seq):
                dataset, _info = patch_dataset(dataset, batch)
                n_batches += 1
        if args.out is not None:
            save_dataset(dataset, args.out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"replayed {n_batches} batches: {dataset.n_nodes} nodes, "
        f"{dataset.n_links} links, hash {dataset_digest(dataset)}"
    )
    return EXIT_OK


def _analytics_main(argv: list[str]) -> int:
    """The ``repro analytics`` subcommand family."""
    verbs = {
        "run": _analytics_run_main,
        "status": _analytics_status_main,
        "history": _analytics_history_main,
        "diff": _analytics_diff_main,
    }
    if not argv or argv[0] not in verbs:
        print(
            "usage: repro analytics {run,status,history,diff} ...",
            file=sys.stderr,
        )
        return 2
    return verbs[argv[0]](argv[1:])


def _analytics_db_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", required=True, metavar="PATH",
        help="analytics metric store (e.g. <ingest-out>/analytics.db)",
    )
    parser.add_argument(
        "--campaign", default="ingest", metavar="NAME",
        help="campaign in the store (default %(default)s)",
    )


def _analytics_open(args: argparse.Namespace):
    """(store, campaign_id) for read verbs; raises ReproError on miss."""
    from repro.analytics import MetricStore
    from repro.errors import AnalyticsError

    store = MetricStore(args.db)
    campaign_id = store.campaign_id(args.campaign)
    if campaign_id is None:
        raise AnalyticsError(
            f"campaign {args.campaign!r} not found in {args.db} "
            f"(have: {', '.join(store.campaigns()) or 'none'})"
        )
    return store, campaign_id


def _analytics_run_main(argv: list[str]) -> int:
    """Offline analytics: replay a WAL over a base snapshot."""
    import json as _json

    from repro.analytics import DriftConfig, replay_wal

    parser = argparse.ArgumentParser(
        prog="repro analytics run",
        description="Analyze every generation of base snapshot + ingest "
        "WAL into the metric store (idempotent: re-runs add nothing)",
    )
    parser.add_argument("--base", required=True, metavar="PATH")
    parser.add_argument("--wal", required=True, metavar="PATH")
    _analytics_db_args(parser)
    parser.add_argument(
        "--drift-metrics", default=None, metavar="A,B",
        help="comma-separated metrics to watch for drift (default: all)",
    )
    parser.add_argument("--drift-warmup", type=int, default=4)
    parser.add_argument("--drift-h", type=float, default=6.0)
    args = parser.parse_args(argv)
    watch = (
        None
        if args.drift_metrics is None
        else [m for m in args.drift_metrics.split(",") if m]
    )
    try:
        summary = replay_wal(
            args.base,
            args.wal,
            args.db,
            args.campaign,
            drift_config=DriftConfig(
                warmup=args.drift_warmup, threshold=args.drift_h
            ),
            drift_metrics=watch,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(summary, indent=2))
    return EXIT_OK


def _analytics_status_main(argv: list[str]) -> int:
    """Latest analyzed generation, its metrics, and recorded alerts."""
    import json as _json

    parser = argparse.ArgumentParser(prog="repro analytics status")
    _analytics_db_args(parser)
    args = parser.parse_args(argv)
    try:
        store, campaign_id = _analytics_open(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    gens = store.generations(campaign_id)
    latest = store.latest(campaign_id)
    alerts = store.alerts(campaign_id, limit=50)
    print(
        _json.dumps(
            {
                "campaign": args.campaign,
                "generations": len(gens),
                "first_gen": gens[0] if gens else None,
                "latest": latest,
                "alerts": alerts,
                "triggers": sum(
                    1 for a in alerts if a["kind"] == "trigger"
                ),
            },
            indent=2,
        )
    )
    return EXIT_OK


def _analytics_history_main(argv: list[str]) -> int:
    """One metric's per-generation series as a small table."""
    parser = argparse.ArgumentParser(prog="repro analytics history")
    _analytics_db_args(parser)
    parser.add_argument(
        "--metric", required=True, metavar="NAME",
        help="metric name (see 'repro analytics status' for the list)",
    )
    parser.add_argument("--limit", type=int, default=50)
    args = parser.parse_args(argv)
    try:
        store, campaign_id = _analytics_open(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    points = store.history(campaign_id, args.metric, limit=args.limit)
    if not points:
        names = ", ".join(store.metric_names(campaign_id)[:20])
        print(
            f"error: no values for {args.metric!r} (have: {names})",
            file=sys.stderr,
        )
        return 1
    print(f"{'gen':>6}  {args.metric}")
    previous = None
    for gen, value in points:
        delta = "" if previous is None else f"  ({value - previous:+.6g})"
        print(f"{gen:>6}  {value:.6g}{delta}")
        previous = value
    return EXIT_OK


def _analytics_diff_main(argv: list[str]) -> int:
    """Compare two stored generations metric by metric."""
    parser = argparse.ArgumentParser(
        prog="repro analytics diff",
        description="Per-metric change between two analyzed generations "
        "(defaults to the two newest)",
    )
    _analytics_db_args(parser)
    parser.add_argument(
        "gens", nargs="*", type=int, metavar="GEN",
        help="two generation numbers (default: the two newest)",
    )
    parser.add_argument(
        "--threshold", type=float, default=None, metavar="FRAC",
        help="exit nonzero when any metric changed by more than this "
        "relative fraction",
    )
    args = parser.parse_args(argv)
    try:
        store, campaign_id = _analytics_open(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    gens = args.gens
    if not gens:
        stored = store.generations(campaign_id)
        if len(stored) < 2:
            print("error: need two analyzed generations", file=sys.stderr)
            return 1
        gens = stored[-2:]
    if len(gens) != 2:
        print("error: give exactly two generations", file=sys.stderr)
        return EXIT_INVALID
    records = []
    for gen in gens:
        record = store.generation(campaign_id, int(gen))
        if record is None:
            print(f"error: generation {gen} not analyzed", file=sys.stderr)
            return 1
        records.append(record)
    old, new = records
    print(
        f"{args.campaign}: gen {old['gen']} -> {new['gen']} "
        f"({new['n_nodes'] - old['n_nodes']:+d} nodes, "
        f"{new['n_links'] - old['n_links']:+d} links)"
    )
    drifted = 0
    for name in sorted(set(old["metrics"]) | set(new["metrics"])):
        a = old["metrics"].get(name)
        b = new["metrics"].get(name)
        if a is None or b is None:
            print(f"  {name:<28} {a} -> {b}  [only one side]")
            continue
        rel = (b - a) / max(abs(a), 1e-12)
        flag = ""
        if args.threshold is not None and abs(rel) > args.threshold:
            drifted += 1
            flag = f"  [> {args.threshold:g}]"
        print(f"  {name:<28} {a:.6g} -> {b:.6g}  ({rel:+.2%}){flag}")
    if drifted:
        print(f"{drifted} metrics past threshold", file=sys.stderr)
        return EXIT_DIFF
    return EXIT_OK


def _sweep_common_args(parser: argparse.ArgumentParser) -> None:
    """Execution flags shared by ``sweep run`` and ``sweep resume``."""
    parser.add_argument(
        "--db",
        default="sweep.db",
        metavar="PATH",
        help="result-store database file (default %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="process-pool size; 0 runs trials in-process without "
        "fault isolation (default %(default)s)",
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method (default: platform default)",
    )
    parser.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help="stop (as interrupted) after N completed trials — for "
        "drills and tests of the resume path",
    )
    _profiling_args(parser)
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="structured JSON logs"
    )


def _sweep_execute(args: argparse.Namespace, spec, store) -> int:
    """Drive one ``sweep run``/``sweep resume`` invocation to its exit code."""
    from repro.sweep import run_campaign

    setup_logging(args.verbose)

    def on_trial(trial, status):
        print(f"  [{status:>6}] {trial.key}", file=sys.stderr)

    with _sampling_profiler(args):
        summary = run_campaign(
            spec,
            store,
            workers=args.workers,
            start_method=args.start_method,
            stop_after=args.stop_after,
            on_trial=on_trial,
        )
    print(
        f"campaign {summary.name!r}: {summary.completed} completed, "
        f"{summary.skipped} skipped, {summary.failed} failed, "
        f"{summary.retried} retries, {summary.crash_recoveries} pool "
        f"rebuilds in {summary.wall_s:.1f}s "
        f"({summary.trials_per_min:.1f} trials/min)",
        file=sys.stderr,
    )
    if summary.interrupted:
        print(
            f"interrupted; continue with: repro sweep resume "
            f"{summary.name} --db {args.db}",
            file=sys.stderr,
        )
        return 1
    return 0


_FOLLOW_BASE_FIELDS = frozenset({"id", "key", "event", "attempt", "pid", "ts"})


def _sweep_follow(store, name: str, interval: float) -> int:
    """Tail a campaign's worker heartbeats until it finishes.

    Polls the result store (the same file the workers append to, so
    this is safe from any terminal) and prints one line per heartbeat.
    Exits once the campaign has left ``running`` and the event log is
    drained; on a finished campaign it replays the full history and
    returns immediately.
    """
    info = store.campaign_info(name)
    last_id = 0
    while True:
        events = store.events_since(info["id"], after_id=last_id)
        for event in events:
            last_id = event["id"]
            extras = " ".join(
                f"{k}={event[k]}"
                for k in sorted(event)
                if k not in _FOLLOW_BASE_FIELDS
            )
            stamp = time.strftime("%H:%M:%S", time.localtime(event["ts"]))
            print(
                f"{stamp}  pid {event['pid']:<8} {event['event']:<7} "
                f"{event['key']:<32} attempt {event['attempt']}"
                + (f"  {extras}" if extras else ""),
                flush=True,
            )
        info = store.campaign_info(name)
        if info["status"] != "running" and not events:
            counts = ", ".join(
                f"{k}={v}" for k, v in sorted(info["trials"].items())
            )
            print(f"{name}: {info['status']} ({counts or 'no trials'})")
            return EXIT_OK
        if not events:
            time.sleep(interval)


def _sweep_main(argv: list[str]) -> int:
    """The ``repro sweep`` subcommand: experiment campaigns."""
    from repro.sweep import (
        ResultStore,
        build_sweep_report,
        load_spec,
        render_sweep_report,
        write_sweep_report,
    )

    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Fault-tolerant multi-process experiment campaigns "
        "(see README 'Sweeps' for the spec format)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run a campaign from a spec file")
    run.add_argument("spec", help="sweep spec JSON file")
    _sweep_common_args(run)
    resume = commands.add_parser(
        "resume",
        help="continue an interrupted campaign, skipping completed trials",
    )
    resume.add_argument("campaign", help="campaign name in the store")
    _sweep_common_args(resume)
    status = commands.add_parser(
        "status",
        help="show campaign progress (safe while a campaign is running)",
    )
    status.add_argument(
        "--db", default="sweep.db", metavar="PATH", help="result-store file"
    )
    status.add_argument(
        "campaign", nargs="?", default=None,
        help="campaign name; omit to list all campaigns",
    )
    status.add_argument(
        "--follow",
        action="store_true",
        help="tail live worker heartbeats until the campaign finishes "
        "(requires a campaign name)",
    )
    status.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="--follow poll interval in seconds (default %(default)s)",
    )
    trace = commands.add_parser(
        "trace",
        help="print the stitched cross-process span tree of a campaign",
    )
    trace.add_argument("campaign", help="campaign name in the store")
    trace.add_argument(
        "--db", default="sweep.db", metavar="PATH", help="result-store file"
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit the span tree as JSON instead of the ASCII rendering",
    )
    rep = commands.add_parser(
        "report",
        help="aggregate a campaign: bootstrap CIs per cell + generator "
        "ranking",
    )
    rep.add_argument("campaign", help="campaign name in the store")
    rep.add_argument(
        "--db", default="sweep.db", metavar="PATH", help="result-store file"
    )
    rep.add_argument(
        "--out",
        default=None,
        metavar="OUT.json",
        help="also write the sweep report JSON (diffable with "
        "'repro report diff')",
    )
    rep.add_argument(
        "--bootstrap",
        type=int,
        default=400,
        help="bootstrap resamples per interval (default %(default)s)",
    )
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            spec = load_spec(args.spec)
            return _sweep_execute(args, spec, ResultStore(args.db))
        if args.command == "resume":
            store = ResultStore(args.db)
            return _sweep_execute(args, store.load_spec(args.campaign), store)
        if args.command == "status":
            store = ResultStore(args.db)
            if args.campaign is None:
                if args.follow:
                    parser.error("--follow requires a campaign name")
                for entry in store.list_campaigns():
                    counts = ", ".join(
                        f"{k}={v}" for k, v in sorted(entry["trials"].items())
                    )
                    print(
                        f"{entry['name']:<24} {entry['status']:<12} "
                        f"{counts or 'no trials'}"
                    )
                return EXIT_OK
            if args.follow:
                return _sweep_follow(store, args.campaign, args.interval)
            counts = store.counts(store.campaign_id(args.campaign))
            total = sum(counts.values())
            done = counts.get("done", 0)
            print(
                f"{args.campaign}: {done}/{total} done "
                + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            )
            return EXIT_OK
        if args.command == "trace":
            import json as _json

            from repro.sweep import render_trace_tree, stitch_campaign_trace

            tree = stitch_campaign_trace(ResultStore(args.db), args.campaign)
            if args.json:
                print(_json.dumps(tree, indent=2))
            else:
                print(render_trace_tree(tree))
            return EXIT_OK
        store = ResultStore(args.db)
        payload = build_sweep_report(
            store, args.campaign, n_boot=args.bootstrap
        )
        if args.out is not None:
            write_sweep_report(payload, args.out)
            print(f"sweep report written to {args.out}", file=sys.stderr)
        print(render_sweep_report(payload))
        return EXIT_OK
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _bench_main(argv: list[str]) -> int:
    """The ``repro bench`` subcommand: benchmark trend tracking."""
    from repro.obs.benchtrend import (
        DEFAULT_THRESHOLD,
        load_entries,
        render_history,
        trend_rows,
    )

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Track benchmark results across revisions",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    history = commands.add_parser(
        "history",
        help="render the per-revision trend table from BENCH_* records "
        "and flag regressions against the previous revision on the "
        "same machine",
    )
    history.add_argument(
        "path",
        nargs="?",
        default=".",
        help="a BENCH_*.json / BENCH_history.jsonl file or a directory "
        "holding them (default: current directory)",
    )
    history.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional change in the worse direction that counts as "
        "a regression (default %(default)s)",
    )
    history.add_argument(
        "--check",
        action="store_true",
        help=f"exit {EXIT_DIFF} when any headline metric regressed",
    )
    args = parser.parse_args(argv)
    try:
        rows = trend_rows(load_entries(args.path), threshold=args.threshold)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(render_history(rows))
    regressed = [row for row in rows if row.regressed]
    if regressed:
        print(
            f"{len(regressed)} headline metric(s) regressed more than "
            f"{args.threshold:.0%} against the previous revision on the "
            "same machine",
            file=sys.stderr,
        )
        if args.check:
            return EXIT_DIFF
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    ``repro run|report|snapshot|serve|query|sweep|bench|cluster|ingest
    |analytics ...`` dispatch
    to the subcommands; anything else is treated as ``run`` flags so
    existing ``python -m repro.cli --scale small ...`` invocations keep
    working.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    subcommands = {
        "report": _report_main,
        "snapshot": _snapshot_main,
        "serve": _serve_main,
        "query": _query_main,
        "sweep": _sweep_main,
        "bench": _bench_main,
        "cluster": _cluster_main,
        "ingest": _ingest_main,
        "analytics": _analytics_main,
    }
    if argv and argv[0] in subcommands:
        return subcommands[argv[0]](argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    return _run_main(argv)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (e.g. `repro report show ... | head`)
        # closed the pipe; silence the interpreter's flush-at-exit noise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
