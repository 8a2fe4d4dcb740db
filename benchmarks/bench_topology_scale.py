"""Topology-scale benchmark: generate + measure at small/default/large.

Times the three hot substrate stages (ground-truth generation, the
Skitter campaign, the Mercator campaign) against the pre-refactor
object-per-element topology and writes ``BENCH_topology.json`` at the
repo root.  Run directly::

    PYTHONPATH=src python benchmarks/bench_topology_scale.py
    PYTHONPATH=src python benchmarks/bench_topology_scale.py --scales large --generate-only

The recorded baselines are the PR-2 ``BENCH_stages.json`` stage
timings (small scale) and the same three stages measured from the last
pre-refactor commit at default scale on the same machine.  The script
asserts the array-native core's combined generate+measure speedup at
default scale meets ``SPEEDUP_FLOOR``, and that small-scale peak RSS
has not regressed past the recorded baseline (with a noise allowance).

Scales run in ascending size order so the small-scale peak-RSS sample
is taken before larger scenarios inflate the process high-water mark.

Each scale's ground-truth time is a headline (``<scale>_ground_truth_s``,
lower is better): the median of ``GENERATION_ROUNDS`` generations from
the same random state, which must all produce the same
``topology_digest``.  The digest goes into the payload, and each scale's
digest must equal the one in the record being replaced (scales the
record lacks are skipped): a generator change that moves the topology
fails the run, which still writes the new record, so an intended change
is re-recorded by running the bench again.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import default_scenario, large_scenario, small_scenario
from repro.net.topology import topology_digest
from repro.measure.mercator import run_mercator
from repro.measure.skitter import run_skitter
from repro.net.generate import generate_ground_truth
from repro.population.worldmodel import build_world

#: Pre-refactor stage wall times in seconds.  ``small`` is the PR-2
#: ``BENCH_stages.json`` record; ``default`` was measured from the last
#: pre-refactor commit immediately before the array-native core landed.
BASELINES = {
    "small": {
        "ground_truth": 0.470069,
        "skitter": 0.143550,
        "mercator": 0.056367,
        "rss_mb": 86.07,
    },
    "default": {
        "ground_truth": 10.033,
        "skitter": 2.799,
        "mercator": 0.804,
        "rss_mb": None,
    },
}

#: Generations timed per scale; the headline is their median.
GENERATION_ROUNDS = 3

#: Required combined generate+measure speedup at default scale.
SPEEDUP_FLOOR = 3.0

#: Peak-RSS regression allowance over the recorded small-scale baseline
#: (run-to-run allocator noise, not a real budget increase).
RSS_TOLERANCE = 1.10

_SCENARIOS = {
    "small": small_scenario,
    "default": default_scenario,
    "large": large_scenario,
}
_ORDER = ("small", "default", "large")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_scale(name: str, generate_only: bool) -> dict:
    """Generate and (optionally) measure one scenario, timing each stage."""
    config = _SCENARIOS[name]()
    rng = np.random.default_rng(config.seed)
    world = build_world(rng, city_scale=config.city_scale)

    # Every round starts from the same random state, so the measurement
    # campaigns below see the same topology and stream as after one.
    state = rng.bit_generator.state
    times: list[float] = []
    digests: set[str] = set()
    for _ in range(GENERATION_ROUNDS):
        topology = None  # keep one topology alive, as a single run does
        rng.bit_generator.state = state
        start = time.perf_counter()
        topology, _, _ = generate_ground_truth(world, config.ground_truth, rng)
        times.append(time.perf_counter() - start)
        digests.add(topology_digest(topology))
    if len(digests) != 1:
        raise RuntimeError(f"{name}: generation rounds disagree: {sorted(digests)}")
    generation_s = float(np.median(times))

    record = {
        "n_routers": topology.n_routers,
        "n_links": topology.n_links,
        "n_interfaces": topology.n_interfaces,
        "topology_digest": digests.pop(),
        "generation_rounds": GENERATION_ROUNDS,
        "ground_truth_s": round(generation_s, 6),
        "routers_per_sec": round(topology.n_routers / generation_s, 1),
    }
    if not generate_only:
        start = time.perf_counter()
        skitter = run_skitter(topology, config.skitter, rng)
        skitter_s = time.perf_counter() - start
        start = time.perf_counter()
        mercator = run_mercator(topology, config.mercator, rng)
        mercator_s = time.perf_counter() - start
        record.update(
            skitter_s=round(skitter_s, 6),
            mercator_s=round(mercator_s, 6),
            combined_s=round(generation_s + skitter_s + mercator_s, 6),
            skitter_nodes=skitter.n_nodes,
            mercator_nodes=mercator.n_nodes,
        )
    record["peak_rss_mb"] = round(_peak_rss_mb(), 2)
    return record


def _recorded_digests(path: Path) -> dict[str, str]:
    """Per-scale ``topology_digest`` of the record at ``path``, if any."""
    try:
        results = json.loads(path.read_text())["data"]["results"]
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    return {
        scale: record["topology_digest"]
        for scale, record in results.items()
        if isinstance(record, dict) and "topology_digest" in record
    }


def _check_digests(results: dict, recorded: dict[str, str]) -> list[str]:
    """Failure messages for scales whose topology moved from the record."""
    return [
        f"{scale}: topology_digest {results[scale]['topology_digest']} "
        f"differs from the recorded {recorded[scale]}"
        for scale in _ORDER
        if scale in results and scale in recorded
        and results[scale]["topology_digest"] != recorded[scale]
    ]


def _check(results: dict, skip_checks: bool) -> list[str]:
    """Speedup and RSS assertions; returns failure messages."""
    failures: list[str] = []
    speedups: dict[str, dict] = {}
    for scale, baseline in BASELINES.items():
        record = results.get(scale)
        if record is None or "combined_s" not in record:
            continue
        base_combined = (
            baseline["ground_truth"] + baseline["skitter"] + baseline["mercator"]
        )
        speedups[scale] = {
            "ground_truth": round(
                baseline["ground_truth"] / record["ground_truth_s"], 2
            ),
            "skitter": round(baseline["skitter"] / record["skitter_s"], 2),
            "mercator": round(baseline["mercator"] / record["mercator_s"], 2),
            "combined": round(base_combined / record["combined_s"], 2),
        }
    results["speedup_vs_baseline"] = speedups
    if skip_checks:
        return failures
    if "default" in speedups:
        combined = speedups["default"]["combined"]
        if combined < SPEEDUP_FLOOR:
            failures.append(
                f"default-scale combined speedup {combined:.2f}x "
                f"below the {SPEEDUP_FLOOR}x floor"
            )
    small = results.get("small")
    if small is not None:
        budget = BASELINES["small"]["rss_mb"] * RSS_TOLERANCE
        if small["peak_rss_mb"] > budget:
            failures.append(
                f"small-scale peak RSS {small['peak_rss_mb']:.1f} MB exceeds "
                f"the {budget:.1f} MB baseline budget"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales",
        nargs="+",
        choices=_ORDER,
        default=["small", "default"],
        help="scenario sizes to benchmark (run in ascending order)",
    )
    parser.add_argument(
        "--generate-only",
        action="store_true",
        help="skip the measurement campaigns (generation smoke mode)",
    )
    parser.add_argument(
        "--skip-checks",
        action="store_true",
        help="record timings without asserting speedup/RSS floors",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_topology.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)

    recorded = _recorded_digests(args.output)
    results: dict = {}
    for scale in _ORDER:
        if scale not in args.scales:
            continue
        record = bench_scale(scale, generate_only=args.generate_only)
        results[scale] = record
        stages = f"gen={record['ground_truth_s']}s"
        if "combined_s" in record:
            stages += (
                f" skitter={record['skitter_s']}s"
                f" mercator={record['mercator_s']}s"
            )
        print(
            f"{scale}: {record['n_routers']} routers, {stages}, "
            f"{record['routers_per_sec']:.0f} routers/s, "
            f"rss={record['peak_rss_mb']} MB"
        )

    failures = _check_digests(results, recorded)
    failures += _check(results, skip_checks=args.skip_checks or args.generate_only)
    payload = {
        "speedup_floor": SPEEDUP_FLOOR,
        "baseline": BASELINES,
        "results": results,
        "failures": failures,
    }
    # The output filename doubles as the bench name (BENCH_<name>.json),
    # so --output BENCH_topology_large.json trends separately from the
    # default small/default-scale record.
    from record import record_bench

    bench_name = args.output.stem.removeprefix("BENCH_") or "topology"
    headline: dict = {}
    for scale in reversed(_ORDER):
        record = results.get(scale)
        if record and "routers_per_sec" in record:
            headline[f"{scale}_routers_per_sec"] = (
                record["routers_per_sec"],
                "higher",
            )
            break
    for scale in _ORDER:
        record = results.get(scale)
        if record:
            headline[f"{scale}_ground_truth_s"] = (
                record["ground_truth_s"],
                "lower",
            )
    small = results.get("small")
    if small is not None:
        headline["small_peak_rss_mb"] = (small["peak_rss_mb"], "lower")
    written = record_bench(
        bench_name, payload, headline=headline, root=args.output.parent
    )
    print(f"wrote {written}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
