"""The ``cluster`` workload: traffic over HTTP to a sharded fleet.

One ``repro cluster serve --ranges 2 --replicas 1`` fleet (a coordinator
and two shard processes) serves the 12x-tiled small snapshot with
default flags.  The load generator runs in this process, one thread
driving two keep-alive connections, on a seeded schedule:

1. prefill: the most popular addresses once each, so the response cache
   starts near its steady state (not measured);
2. the nominal phase, open loop at :data:`NOMINAL_RPS` (Poisson
   arrivals): latency p50 and p90 as the medians over its windows of
   each window's p50 and p90;
3. the saturation phase, closed loop: each connection sends its next
   request as soon as its answer arrives; ``throughput_per_s`` is the
   median over windows of the requests answered per second.

Every distinct answer is checked against an in-process
:class:`SnapshotIndex` over the same snapshot, which is what a
single-process ``repro serve`` answers, so the check covers both.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pbench import common, inputs, loadgen, spans
from pbench.checks import ResponseLog, ServingReference
from pbench.common import BenchError, Outcome

TILES = 12
#: Two connections carry about 1700 req/s through the cluster on a quiet
#: 2-vCPU host, and about 700 req/s while other tenants of the host steal
#: a quarter of its CPU time; the nominal rate stays at half of the lower,
#: so its latency is the servers', not a queue's.
NOMINAL_RPS = 350.0
NOMINAL_SHARE = 0.7  # of the measured seconds; the saturation phase gets the rest
#: Windows of the nominal phase's p50 and p90 and of the saturation rate;
#: a stall of the host moves the windows it falls in, not their median.
WINDOWS = 12
PREFILL_KEYS = 3000
#: Requests generated for the saturation phase per second of it; more
#: than two connections can complete.
SATURATION_TARGETS_PER_S = 20000
#: The generator-ceiling run: this multiple of the nominal rate, for
#: :data:`CEILING_S` seconds, against a no-op stub server.
CEILING_FACTOR = 4.0
CEILING_S = 1.0
#: A run whose last quarter runs this much later than its first has a
#: growing backlog.
LATENESS_GROWTH_MS = 5.0
SETUP_REPEATS = 3


@dataclass
class Fleet:
    """A running coordinator and its shards under test."""

    proc: subprocess.Popen
    host: str
    port: int
    pids: list[int] = field(default_factory=list)

    def get_json(self, target: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30.0)
        try:
            conn.request("GET", target)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise BenchError(f"{target} answered {response.status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return sum(common.peak_rss_mb(pid) for pid in self.pids)

    def stop(self) -> None:
        common.stop_process(self.proc)
        for pid in self.pids[1:]:  # shards the coordinator left running
            common.stop_pid(pid)


def _command(snapshot: Path) -> tuple[list[str], str]:
    return (
        [sys.executable, "-m", "repro.cli", "cluster", "serve", "--snapshot",
         str(snapshot), "--port", "0", "--ranges", "2", "--replicas", "1"],
        "cluster coordinator on",
    )


def start_fleet(snapshot: Path, env: dict[str, str]) -> tuple[Fleet, float]:
    """Start the coordinator and its shards; returns them and the set-up
    time, from process start until ``/healthz`` answers 200: shard spawn,
    each shard's snapshot load and index build, and coordinator start.
    """
    cmd, banner = _command(snapshot)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    try:
        line, before = common.read_line_matching(proc, banner)
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            raise BenchError(f"no URL in banner {line!r}")
        fleet = Fleet(proc, match.group(1), int(match.group(2)))
        fleet.get_json("/healthz")
        setup_s = time.perf_counter() - t0
    except BaseException:
        common.stop_process(proc)
        raise
    fleet.pids = [proc.pid] + [
        int(m.group(1)) for m in (re.search(r"pid=(\d+)", ln) for ln in before) if m
    ]
    return fleet, setup_s


def poisson(rate: float, duration_s: float, seed: int, stream: int) -> np.ndarray:
    return inputs.poisson_schedule(rate, duration_s, np.random.default_rng([seed, stream, 1]))


def lateness_grows(lateness_ms: np.ndarray) -> bool:
    quarters = np.array_split(lateness_ms, 4)
    return common.median(quarters[-1]) - common.median(quarters[0]) > LATENESS_GROWTH_MS


def window_rates(result: loadgen.LoadResult, duration_s: float,
                 windows: int = WINDOWS) -> list[float]:
    """Requests answered per second in each of ``windows`` equal time
    windows of a closed-loop run."""
    edges = np.linspace(0.0, duration_s, windows + 1)
    counts, _ = np.histogram(result.done[result.was_sent & result.ok], bins=edges)
    return list(counts / (duration_s / windows))


def generator_ceiling(seed: int) -> tuple[bool, float]:
    """Whether the generator keeps its schedule against a stub server.

    The generator is driven against a no-op stub server at
    :data:`CEILING_FACTOR` times the nominal rate.  Returns whether its
    lateness stayed flat and its lateness p99 (ms).
    """
    env = common.child_env(extra_paths=(common.PERFBENCH,))
    proc = subprocess.Popen([sys.executable, "-m", "pbench.stub_server"],
                            stdout=subprocess.PIPE, env=env)
    try:
        line, _ = common.read_line_matching(proc, "stub on port", timeout_s=30.0)
        port = int(line.split()[-1])
        due = poisson(CEILING_FACTOR * NOMINAL_RPS, CEILING_S, seed, 5)
        result = loadgen.run_open_loop("127.0.0.1", port, due, ["/stub"] * len(due))
        lateness = result.lateness_ms()
        kept_up = result.n_failed == 0 and not lateness_grows(lateness)
        return kept_up, common.percentile(lateness, 99.0)
    finally:
        common.stop_process(proc)


@dataclass
class Run:
    """Everything one serving run sent, saw and measured."""

    outcome: Outcome
    nominal: loadgen.LoadResult | None = None
    stats: dict = field(default_factory=dict)
    ceiling_lateness_ms: float = 0.0
    trace_dir: Path | None = None


def run(kind: str, seed: int, seconds: float, traced: bool) -> Run:
    work = common.WORK / kind
    snapshot, dataset = inputs.snapshot_file(TILES, common.WORK / "snapshots")
    traffic = inputs.TrafficModel.for_dataset(dataset, np.random.default_rng([seed, 0]))
    nominal_s = NOMINAL_SHARE * seconds
    saturation_s = seconds - nominal_s
    out = Run(Outcome())
    outcome = out.outcome

    # The nominal phase must measure the server, not the generator.
    kept_up, out.ceiling_lateness_ms = generator_ceiling(seed)
    if not kept_up:
        outcome.fail(f"generator fell behind at {CEILING_FACTOR * NOMINAL_RPS:.0f}/s "
                     "against a stub server")

    trace_dir = None
    if traced:
        trace_dir = out.trace_dir = work / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
    env = common.child_env(traced=traced, trace_dir=trace_dir)
    setups = []
    peaks = []  # MB, each fleet's peak RSS when it is stopped
    fleet = None
    for _ in range(SETUP_REPEATS):
        if fleet is not None:
            peaks.append(fleet.peak_rss_mb())
            fleet.stop()
        fleet, setup_s = start_fleet(snapshot, env)
        setups.append(setup_s)
    outcome.put("setup_s", common.median(setups), "s")

    log = ResponseLog()
    phases: list[loadgen.LoadResult] = []

    try:
        # Inputs depend only on (seed, stream), never on measured results.
        # Prefill: the most popular addresses once each, so the response
        # cache starts the measured phases near its steady state.
        prefill = [f"/locate?address={int(a)}" for a in traffic.addresses[:PREFILL_KEYS]]
        phases.append(loadgen.run_closed_loop(fleet.host, fleet.port, prefill, math.inf,
                                              check=log.record))
        due = poisson(NOMINAL_RPS, nominal_s, seed, 2)
        nominal = out.nominal = loadgen.run_open_loop(
            fleet.host, fleet.port, due,
            traffic.targets(len(due), np.random.default_rng([seed, 2])),
            check=log.record, trace_prefix="02" if traced else "",
        )
        phases.append(nominal)
        latency = np.array_split(nominal.latency_ms(), WINDOWS)
        p50s = [common.percentile(w, 50.0) for w in latency]
        tails = [common.percentile(w, common.TAIL_Q) for w in latency]
        outcome.put("latency_p50_ms", common.median(p50s), "ms")
        outcome.put("latency_p90_ms", common.median(tails), "ms")
        # The index build sets the peak, and how high varies with when
        # the collector runs, so the peak is the median over the fleets
        # started.  The last one's is read after a fixed amount of work:
        # the saturation phase's length in requests depends on capacity.
        peaks.append(fleet.peak_rss_mb())
        outcome.put("peak_rss_mb", common.median(peaks), "MB")
        cpu0 = sum(common.cpu_s(pid) for pid in fleet.pids)
        targets = traffic.targets(int(SATURATION_TARGETS_PER_S * saturation_s),
                                  np.random.default_rng([seed, 3]))
        saturation = loadgen.run_closed_loop(
            fleet.host, fleet.port, targets, saturation_s, check=log.record)
        cpu = sum(common.cpu_s(pid) for pid in fleet.pids) - cpu0
        phases.append(saturation)
        if saturation.n_unsent == 0:
            raise BenchError("the saturation phase ran out of targets")
        rates = window_rates(saturation, saturation_s)
        outcome.put("throughput_per_s", common.median(rates), "1/s")
        if traced:
            out.stats = fleet.get_json("/stats")
        for result in phases:
            if result.n_failed:
                outcome.fail(f"{result.n_failed} requests failed", result.n_failed)
        answered = saturation.n - saturation.n_unsent
        print(f"{kind}: nominal {NOMINAL_RPS:g}/s n={nominal.n} p50 windows "
              f"{[round(w, 3) for w in p50s]} p90 windows {[round(w, 2) for w in tails]}; "
              f"saturation n={answered} windows {[round(r) for r in rates]}/s, "
              f"server cpu {cpu * 1e3 / answered:.3f} ms/request; "
              f"generator lateness p99 {out.ceiling_lateness_ms:.2f} ms at "
              f"{CEILING_FACTOR * NOMINAL_RPS:g}/s; "
              f"setups {[round(s, 3) for s in setups]}", file=sys.stderr)
    finally:
        fleet.stop()
    outcome.attempted = sum(r.n - r.n_unsent for r in phases)
    from repro.serve import SnapshotIndex

    reference = ServingReference(SnapshotIndex(dataset))
    for problem in reference.verify(log.first):
        outcome.fail(problem)
    for target in sorted(log.inconsistent):
        outcome.fail(f"answers differ between requests for {target}")
    return out


# --- per-layer metrics of a traced run -------------------------------------------


def _load_traces(trace_dir: Path) -> dict[str, list[spans.Span]]:
    by_role: dict[str, list[spans.Span]] = {}
    for path in sorted(trace_dir.glob("*.json")):
        role, recorded, _ = spans.load(path)
        by_role.setdefault(role, []).extend(recorded)
    return by_role


def _front_ms(nominal: loadgen.LoadResult, server_spans: list[spans.Span], name: str) -> float:
    """Mean client round trip minus the server's ``handle_target`` time,
    over the nominal phase's requests, joined by trace id."""
    handled = {s.trace: s.duration for s in server_spans if s.name == name and s.trace}
    gaps = [
        (nominal.done[i] - nominal.sent[i] - handled[trace]) * 1e3
        for i, trace in enumerate(nominal.trace_ids)
        if trace in handled
    ]
    return common.mean(gaps)


def layer_metrics(kind: str, out: Run) -> dict[str, float]:
    traces = _load_traces(out.trace_dir)
    for role in ("coordinator", "shard"):
        if role not in traces:
            raise BenchError(f"no spans recorded by the {role}")
    coord = traces["coordinator"]
    shard = spans.Summary(traces["shard"])
    summary = spans.Summary(coord)
    probes = {s.id for s in coord if s.name == "cluster.probe"}
    rpcs = [s for s in coord if s.name == "cluster.rpc" and s.parent not in probes]
    requests = summary.calls("cluster.coord.handle_target")
    locate_calls = shard.calls("serve.index.locate_many")
    shard_counters = _counters(out.trace_dir, "shard")
    stats = out.stats
    counters = stats["metrics"]["counters"]
    builds = [s for s in traces["shard"] if s.name == "serve.index.build"]
    return {
        "client.lateness_p99_ms": common.percentile(out.nominal.lateness_ms(), 99.0),
        "client.ceiling_lateness_p99_ms": out.ceiling_lateness_ms,
        "cluster.front_ms": _front_ms(out.nominal, coord, "cluster.coord.handle_target"),
        "cluster.coord.handle_target_ms": summary.mean_self_ms("cluster.coord.handle_target"),
        "cluster.coord.cache.hit_ratio": stats["cache"]["hit_ratio"],
        "cluster.coord.batcher.wait_ms": summary.mean_ms("cluster.coord.batcher.wait"),
        "cluster.coord.batcher.mean_batch": stats["batcher"]["mean_batch"],
        "cluster.coord.batcher.flushes": stats["batcher"]["flushes"],
        "cluster.rpc_ms": common.mean(s.duration * 1e3 for s in rpcs),
        "cluster.rpcs_per_request": len(rpcs) / requests if requests else 0.0,
        "cluster.shard.handle_target_ms": shard.mean_self_ms("cluster.shard.handle_target"),
        "cluster.shed": stats["shed_requests"],
        "cluster.hedges": counters.get("coord.hedges", 0.0),
        "cluster.failovers": counters.get("coord.failovers", 0.0),
        "cluster.spawn_s": summary.total_s("cluster.spawn")
        / max(1, summary.calls("cluster.spawn")),
        "serve.index.build_s": common.mean(s.duration for s in builds),
        "serve.index.locate_many_ms": shard.mean_ms("serve.index.locate_many"),
        "serve.index.locate_many_keys": (
            shard_counters.get("serve.index.locate_many_keys", 0.0) / locate_calls
            if locate_calls else 0.0
        ),
        "serve.index.nearest_ms": shard.mean_ms("serve.index.nearest"),
        "serve.index.as_record_ms": shard.mean_ms("serve.index.as_record"),
    }


def _counters(trace_dir: Path, role: str) -> dict[str, float]:
    total: dict[str, float] = {}
    for path in sorted(trace_dir.glob(f"{role}-*.json")):
        _, _, counters = spans.load(path)
        for name, value in counters.items():
            total[name] = total.get(name, 0.0) + value
    return total
