"""Performance benchmarks for the pipeline's heavy stages.

These are conventional pytest-benchmark timings (multiple rounds) of
the substrate kernels, at reduced scale so rounds stay fast: world
synthesis, ground-truth generation, Skitter/Mercator campaigns,
geolocation + AS mapping, and the exact pair-count kernel — plus the
staged runtime's own per-stage telemetry baseline and the
``locate_many`` batch-vs-scalar contrast on the mapping hot path.
"""

import time

import numpy as np
import pytest

from repro.bgp.routeviews import build_routeviews_snapshot
from repro.config import (
    BgpConfig,
    GroundTruthConfig,
    MercatorConfig,
    SkitterConfig,
)
from repro.core.distance import pair_counts
from repro.datasets.pipeline import build_snapshot
from repro.geoloc.base import Locations, build_context, locate_batch
from repro.geoloc.ixmapper import IxMapper
from repro.measure.artifacts import clean_inventory
from repro.measure.mercator import run_mercator
from repro.measure.skitter import run_skitter
from repro.net.generate import generate_ground_truth
from repro.population.worldmodel import build_world


@pytest.fixture(scope="module")
def bench_world():
    return build_world(np.random.default_rng(8), city_scale=0.5)


@pytest.fixture(scope="module")
def bench_truth(bench_world):
    config = GroundTruthConfig(
        total_routers=5_000, n_ases=200, tier1_count=8, tier2_count=40
    )
    return generate_ground_truth(
        bench_world, config, np.random.default_rng(9)
    )


def test_bench_world_synthesis(benchmark):
    benchmark(lambda: build_world(np.random.default_rng(1), city_scale=0.5))


def test_bench_ground_truth_generation(benchmark, bench_world):
    config = GroundTruthConfig(
        total_routers=3_000, n_ases=120, tier1_count=6, tier2_count=24
    )

    benchmark(
        lambda: generate_ground_truth(
            bench_world, config, np.random.default_rng(2)
        )
    )


def test_bench_skitter_campaign(benchmark, bench_truth):
    topology, _, _ = bench_truth
    config = SkitterConfig(n_monitors=8, destinations_per_monitor=800)

    benchmark(lambda: run_skitter(topology, config, np.random.default_rng(3)))


def test_bench_mercator_campaign(benchmark, bench_truth):
    topology, _, _ = bench_truth
    config = MercatorConfig(n_targets=1_200, n_source_routed=500)

    benchmark(lambda: run_mercator(topology, config, np.random.default_rng(4)))


def test_bench_geolocation_and_as_mapping(benchmark, bench_world, bench_truth):
    topology, plan, _ = bench_truth
    rng = np.random.default_rng(5)
    from repro.config import GeolocConfig

    context = build_context(bench_world, topology, plan, GeolocConfig(), rng)
    table = build_routeviews_snapshot(plan, BgpConfig(), rng)
    inventory = run_skitter(
        topology,
        SkitterConfig(n_monitors=6, destinations_per_monitor=600),
        rng,
    )
    cleaned, _ = clean_inventory(inventory)

    def map_once():
        mapper = IxMapper(context, np.random.default_rng(6))
        return build_snapshot(cleaned, mapper, table, "bench")

    benchmark(map_once)


def test_bench_pair_counts(benchmark):
    rng = np.random.default_rng(7)
    lats = rng.uniform(26, 49, 4_000)
    lons = rng.uniform(-124, -66, 4_000)

    benchmark(lambda: pair_counts(lats, lons, 35.0, 100))


# --- Staged runtime -----------------------------------------------------------


#: Pipeline runs behind each stage-timing headline (their median).
STAGE_ROUNDS = 5


def test_pipeline_stage_timing_baseline():
    """Record the per-stage telemetry profile of the reduced-scale run.

    The profile is the timing baseline for the staged runtime: wall
    time, RSS high-water mark, and node/link counters per stage.  It is
    printed, and its events land machine-readable in
    ``BENCH_stages.json`` at the repo root, so successive runs
    accumulate a comparable perf trajectory (and ``repro report diff``
    has a stable counter baseline to check against).  No tracked
    artefact carries the wall times, so a run leaves
    ``benchmarks/output/`` unchanged.

    The pipeline runs ``STAGE_ROUNDS`` times.  The headlines are medians
    over the runs: the total, the two measurement campaigns
    (``skitter_s``, ``mercator_s``), ``map_s`` (the four ``map:*``
    passes together) and ``ground_truth_s``, so bench history shows
    which layer moved.  The stage list is the run with the median total.
    """
    from repro.config import small_scenario
    from repro.datasets.pipeline import build_pipeline_graph, run_pipeline
    from repro.runtime import Telemetry

    runs = []
    for _ in range(STAGE_ROUNDS):
        telemetry = Telemetry()
        run_pipeline(small_scenario(), telemetry=telemetry)
        assert {e.stage for e in telemetry.events} == set(
            build_pipeline_graph().names
        )
        runs.append(telemetry)

    def median_of(wall_s) -> float:
        return round(float(np.median([wall_s(t) for t in runs])), 6)

    total_wall_s = median_of(lambda t: t.total_wall_s())
    map_s = median_of(
        lambda t: sum(e.wall_s for e in t.events if e.stage.startswith("map:"))
    )

    def stage_s(name: str) -> float:
        return median_of(
            lambda t: sum(e.wall_s for e in t.events if e.stage == name)
        )

    skitter_s = stage_s("skitter")
    mercator_s = stage_s("mercator")
    ground_truth_s = stage_s("ground_truth")
    telemetry = sorted(runs, key=lambda t: t.total_wall_s())[STAGE_ROUNDS // 2]
    print(telemetry.render_profile())

    events = sorted(telemetry.events, key=lambda e: (e.start_s, e.stage))
    from record import record_bench

    record_bench(
        "stages",
        {
            "scale": "small",
            "rounds": STAGE_ROUNDS,
            "total_wall_s": total_wall_s,
            "skitter_s": skitter_s,
            "mercator_s": mercator_s,
            "map_s": map_s,
            "ground_truth_s": ground_truth_s,
            "stages": [e.to_dict() for e in events],
        },
        headline={
            "total_wall_s": (total_wall_s, "lower"),
            "skitter_s": (skitter_s, "lower"),
            "mercator_s": (mercator_s, "lower"),
            "map_s": (map_s, "lower"),
            "ground_truth_s": (ground_truth_s, "lower"),
        },
    )


#: Interleaved batch/scalar rounds timed by the speedup check.
SPEEDUP_ROUNDS = 7


def test_locate_many_speedup_visible(bench_world, bench_truth):
    """The batched mapping hot path beats per-address locate calls.

    Times ``locate_batch`` alone over one inventory's member interfaces,
    once through IxMapper's vectorised ``locate_many`` and once through
    a wrapper whose ``locate_many`` loops over ``locate`` (a batch of
    one each).  Batch and scalar rounds alternate, so a noisy host slows
    both arms alike, and the medians of ``SPEEDUP_ROUNDS`` rounds are
    compared.  The vote and AS mapping of ``build_snapshot`` are
    identical in both arms and are not timed; both arms must still
    produce equal answers and datasets.
    """
    topology, plan, _ = bench_truth
    rng = np.random.default_rng(5)
    from repro.config import GeolocConfig

    context = build_context(bench_world, topology, plan, GeolocConfig(), rng)
    table = build_routeviews_snapshot(plan, BgpConfig(), rng)
    inventory = run_skitter(
        topology,
        SkitterConfig(n_monitors=8, destinations_per_monitor=1_200),
        rng,
    )
    cleaned, _ = clean_inventory(inventory)
    members = cleaned.members

    class _ScalarOnly:
        """Wraps a mapper, locating a batch one ``locate`` call at a time."""

        def __init__(self, inner):
            self._inner = inner

        name = "IxMapper"

        def locate_many(self, addresses):
            return Locations.from_results(
                [self._inner.locate(address) for address in addresses.tolist()]
            )

    arms = {
        "batch": lambda: IxMapper(context, np.random.default_rng(6)),
        "scalar": lambda: _ScalarOnly(
            IxMapper(context, np.random.default_rng(6))
        ),
    }
    times: dict[str, list[float]] = {name: [] for name in arms}
    results = {}
    for _ in range(SPEEDUP_ROUNDS):
        for name, make_mapper in arms.items():
            mapper = make_mapper()
            start = time.perf_counter()
            results[name] = locate_batch(mapper, members)
            times[name].append(time.perf_counter() - start)
    assert results["batch"].results() == results["scalar"].results()
    batch_ds, _ = build_snapshot(cleaned, arms["batch"](), table, "bench")
    scalar_ds, _ = build_snapshot(cleaned, arms["scalar"](), table, "bench")
    assert np.array_equal(batch_ds.addresses, scalar_ds.addresses)
    assert np.array_equal(batch_ds.lats, scalar_ds.lats)
    batch_s = float(np.median(times["batch"]))
    scalar_s = float(np.median(times["scalar"]))
    assert batch_s < scalar_s, (
        f"batched locate ({batch_s:.3f}s median) not faster than "
        f"scalar loop ({scalar_s:.3f}s median)"
    )
