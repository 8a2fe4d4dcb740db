"""The ``paper`` workload: seed to tables, one process per seed.

The run cycles through the scenarios ``small_scenario(seed + i)`` for
``i < SCENARIOS`` until the measured time is up, each in a fresh
``pbench.paper_worker`` process (the serial pipeline with no artifact
cache, every ``--experiments all`` artefact for IxMapper, then
``validate_recovery``).  A scenario run a second time must render the
same tables and recovery report byte for byte, and the recovery reports
must stay within the small scenario's tolerance (see
:func:`pbench.checks.recovery_problems`).

- ``setup_s``: process start until the first pipeline stage starts
  (interpreter, imports, configuration), median over the seeds run;
- ``latency_p50_ms`` / ``latency_p90_ms``: seed-to-tables time, from the
  first stage until every table is rendered and validated;
- ``throughput_per_s``: seeds completed per second of seed-to-tables time;
- ``peak_rss_mb``: the median over the seeds run of each worker's peak
  RSS (the largest would follow the one biggest scenario of the six).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from pbench import checks, common, spans
from pbench.common import BenchError, Outcome

#: Distinct scenarios per run.  Scenario cost varies by seed (0.9 to
#: 1.8 s seed to tables on one host), so the median needs several.
SCENARIOS = 6
#: Seed runs at least this often, so every run repeats one scenario.
MIN_SEEDS = SCENARIOS + 1


@dataclass
class Run:
    outcome: Outcome
    trace_files: list[Path] = field(default_factory=list)


def run_seed(seed: int, trace_out: Path | None = None) -> tuple[dict, float]:
    """Run one seed in a worker; returns its report and the start time."""
    cmd = [sys.executable, "-m", "pbench.paper_worker", "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = common.child_env(extra_paths=(common.PERFBENCH,))
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=150)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"paper worker for seed {seed} failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def run(workload: str, seed: int, seconds: float, traced: bool) -> Run:
    out = Run(Outcome())
    outcome = out.outcome
    trace_dir = common.WORK / "paper" / "trace"
    if traced:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    digests: dict[int, tuple[str, str]] = {}
    misses: dict[str, list[str]] = {}
    n_checks: dict[str, int] = {}
    setups, latencies, rss = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_SEEDS or time.perf_counter() < deadline:
        scenario = seed + i % SCENARIOS
        trace_out = trace_dir / f"paper-{i}.json" if traced else None
        report, started = run_seed(scenario, trace_out)
        if trace_out is not None:
            out.trace_files.append(trace_out)
        outcome.attempted += 1
        setups.append(report["first_stage"] - started)
        latencies.append((report["end"] - report["first_stage"]) * 1e3)
        rss.append(report["rss_mb"])
        for problem in report["problems"]:
            outcome.fail(f"seed {scenario}: {problem}")
        fingerprint = (report["digest"], report["recovery_digest"])
        if digests.setdefault(scenario, fingerprint) != fingerprint:
            outcome.fail(f"seed {scenario}: tables or recovery report differ between two runs")
        # A repeat renders the same recovery report (checked above), so it
        # adds no evidence: each scenario counts once in the pooled verdict.
        misses[f"seed {scenario}"] = report["recovery_misses"]
        n_checks[f"seed {scenario}"] = report["recovery_checks"]
        i += 1
    for problem in checks.recovery_problems(misses, n_checks):
        outcome.fail(problem)
    outcome.put("setup_s", common.median(setups), "s")
    outcome.put("latency_p50_ms", common.median(latencies), "ms")
    outcome.put("latency_p90_ms", common.windowed_percentile(latencies), "ms")
    outcome.put("throughput_per_s", len(latencies) / (sum(latencies) / 1e3), "1/s")
    outcome.put("peak_rss_mb", common.median(rss), "MB")
    print(f"paper: {len(latencies)} seeds, seed-to-tables ms "
          f"{[round(v) for v in latencies]}, setups {[round(s, 3) for s in setups]}",
          file=sys.stderr)
    return out


_EXPERIMENTS = {
    "core.table5": "core.table5_s",
    "core.figure4": "core.figure4_s",
    "core.figures7_to_10": "core.figures7_10_s",
    "core.validate_recovery": "core.validate_s",
}
_STAGES = {
    "stage:world": "runtime.world_s",
    "stage:ground_truth": "net.ground_truth_s",
    "stage:bgp_snapshot": "bgp.snapshot_s",
    "stage:skitter": "measure.skitter_s",
    "stage:mercator": "measure.mercator_s",
}


def layer_metrics(workload: str, out: Run) -> dict[str, float]:
    """Per-seed means of the paper layers' times and f(d) call counts."""
    n = len(out.trace_files)
    totals: dict[str, float] = {}
    calls = distinct = 0.0
    for path in out.trace_files:
        _, recorded, counters = spans.load(path)
        for span in recorded:
            if span.name in _STAGES:
                key = _STAGES[span.name]
            elif span.name.startswith("stage:map:"):
                key = "geoloc.map_s"
            elif span.name in _EXPERIMENTS:
                key = _EXPERIMENTS[span.name]
            elif span.name.startswith("core."):
                key = "core.rest_s"
            else:
                continue
            totals[key] = totals.get(key, 0.0) + span.duration
        calls += counters.get("core.preference_calls", 0.0)
        distinct += counters.get("core.preference_distinct", 0.0)
    metrics = {key: value / n for key, value in totals.items()}
    metrics["core.preference_calls"] = calls / n
    metrics["core.preference_distinct_ratio"] = distinct / calls if calls else 0.0
    return metrics
