"""The end-to-end pipeline: generate, measure, geolocate, AS-map.

``run_pipeline`` reproduces the paper's whole methodology section and
yields the four processed datasets of its Table I
({IxMapper, EdgeScape} x {Mercator, Skitter}) plus everything needed to
validate them against ground truth.

The pipeline is expressed as an explicit stage DAG over
:mod:`repro.runtime`: world synthesis, ground-truth generation, the BGP
snapshot, the geolocation context, the two measurement campaigns, and
the four mapping passes are separate stages with declared inputs.  Each
stage draws from its own RNG stream spawned from the scenario seed, so
the executor may run independent branches (Skitter vs. Mercator, the
four ``build_snapshot`` passes) concurrently — or serve them from the
artifact cache — without changing a single bit of the output.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bgp.routeviews import build_routeviews_snapshot
from repro.bgp.table import UNMAPPED_ASN, BgpTable
from repro.config import ScenarioConfig
from repro.datasets.mapped import LOCATION_DECIMALS, MappedDataset
from repro.datasets.serialize import dataset_from_dict, dataset_to_dict
from repro.errors import DatasetError
from repro.geo.coords import distinct_points
from repro.geoloc.base import GeoContext, Geolocator, build_context, locate_batch
from repro.geoloc.edgescape import EdgeScape
from repro.geoloc.ixmapper import IxMapper
from repro.measure.artifacts import clean_inventory
from repro.measure.inventory import RawInventory, positions
from repro.measure.mercator import run_mercator
from repro.measure.skitter import run_skitter
from repro.net.addressing import AddressPlan
from repro.obs import span as obs_span
from repro.net.generate import GenerationReport, generate_ground_truth
from repro.net.topology import Topology
from repro.population.worldmodel import World, build_world
from repro.runtime import (
    ArtifactCache,
    Stage,
    StageContext,
    StageGraph,
    Telemetry,
    execute,
    register_codec,
)

#: Mapping tools and measurements, in the paper's presentation order.
MAPPER_NAMES = ("IxMapper", "EdgeScape")
MEASUREMENT_NAMES = ("Mercator", "Skitter")

#: Stage names of the pipeline DAG (mapping stages are derived below).
STAGE_WORLD = "world"
STAGE_GROUND_TRUTH = "ground_truth"
STAGE_BGP = "bgp_snapshot"
STAGE_GEO_CONTEXT = "geo_context"
STAGE_SKITTER = "skitter"
STAGE_MERCATOR = "mercator"

_MEASUREMENT_STAGES = {"Skitter": STAGE_SKITTER, "Mercator": STAGE_MERCATOR}


def mapping_stage_name(mapper: str, measurement: str) -> str:
    """The DAG stage name of one mapping pass."""
    return f"map:{mapper},{measurement}"


@dataclass(frozen=True, slots=True)
class ProcessingReport:
    """Per-dataset bookkeeping of the mapping stage.

    Attributes:
        label: dataset label.
        n_raw_nodes: nodes before geolocation.
        n_unmapped: nodes discarded because the tool could not place them.
        n_location_ties: Mercator routers discarded for tied interface
            location votes (the paper's 2.5-2.9%).
        n_as_unmapped: surviving nodes whose address matched no announced
            prefix (grouped into the sentinel AS).
    """

    label: str
    n_raw_nodes: int
    n_unmapped: int
    n_location_ties: int
    n_as_unmapped: int


def _grouped_mode(
    groups: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group most common value, ties broken by first occurrence.

    The ranking of ``Counter(values of one group).most_common()``: by
    count, then by first occurrence in input order.

    Returns:
        ``(group_ids, winners, tied)``: the groups present in ascending
        order; per group, the input index of its winning value's first
        occurrence; and whether another value reaches the winner's count.
    """
    n = groups.size
    if n == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0, dtype=bool)
    # Stable: each (group, value) run lists its inputs in input order.
    order = np.lexsort((values, groups))
    sorted_groups = groups[order]
    sorted_values = values[order]
    run_starts = np.ones(n, dtype=bool)
    run_starts[1:] = (sorted_groups[1:] != sorted_groups[:-1]) | (
        sorted_values[1:] != sorted_values[:-1]
    )
    first = np.flatnonzero(run_starts)
    run_group = sorted_groups[first]
    run_count = np.diff(np.append(first, n))
    run_first = order[first]
    # Runs ranked within each group: highest count, then first seen.
    ranked = np.lexsort((run_first, -run_count, run_group))
    ranked_group = run_group[ranked]
    heads = np.ones(ranked.size, dtype=bool)
    heads[1:] = ranked_group[1:] != ranked_group[:-1]
    head_at = np.flatnonzero(heads)
    best = ranked[head_at]
    # The runner-up, where a group has one, sits right after its head.
    runner_at = np.minimum(head_at + 1, ranked.size - 1)
    runner = ranked[runner_at]
    tied = (
        (runner_at > head_at)
        & (ranked_group[runner_at] == run_group[best])
        & (run_count[runner] == run_count[best])
    )
    return run_group[best], run_first[best], tied


def build_snapshot(
    inventory: RawInventory,
    geolocator: Geolocator,
    bgp_table: BgpTable,
    label: str,
) -> tuple[MappedDataset, ProcessingReport]:
    """Geolocate and AS-map a cleaned inventory into a dataset.

    Skitter nodes are located directly.  Mercator nodes take the location
    most commonly reported across their member interfaces (rounded to
    city granularity); ties discard the router.  The parent AS is, for
    Mercator, the AS most commonly reported by the member interfaces,
    the first seen winning a tie.

    All member interfaces are geolocated in one ``locate_many`` batch —
    the mapping stage's hot path — rather than one ``locate`` call per
    interface.  Both votes are one grouped pass over member arrays, and
    the members of surviving nodes are AS-mapped in one
    :meth:`~repro.bgp.table.BgpTable.origin_many` call.

    Raises:
        DatasetError: if the inventory fails validation.
    """
    inventory.validate()
    nodes = inventory.nodes
    n_nodes = int(nodes.size)
    members = inventory.members
    member_node = np.searchsorted(nodes, inventory.member_nodes)
    located = locate_batch(geolocator, members)

    # Location vote over the members the tool could place.
    mapped = located.mapped
    lats, lons = located.lats[mapped], located.lons[mapped]
    # Keys round each distinct point once, with Python's correctly
    # rounded ``round`` (``np.round(0.15, 1)`` is 0.2; ``round`` gives 0.1).
    point_lats, point_lons, _, point_of = distinct_points(lats, lons)
    key_lats = np.array(
        [round(x, LOCATION_DECIMALS) for x in point_lats.tolist()], dtype=float
    )
    key_lons = np.array(
        [round(x, LOCATION_DECIMALS) for x in point_lons.tolist()], dtype=float
    )
    _, _, _, key_of_point = distinct_points(key_lats, key_lons)
    voted_nodes, winners, tied = _grouped_mode(
        member_node[mapped], key_of_point[point_of]
    )
    kept_nodes = voted_nodes[~tied]
    # The winner's exact coordinates: its node's first member with that key.
    kept_lats = lats[winners[~tied]]
    kept_lons = lons[winners[~tied]]

    # AS vote over every member of the surviving nodes.
    survives = np.zeros(n_nodes, dtype=bool)
    survives[kept_nodes] = True
    voting = survives[member_node]
    member_asns = bgp_table.origin_many(members[voting])
    _, as_winners, _ = _grouped_mode(member_node[voting], member_asns)
    kept_asns = member_asns[as_winners]

    kept_addresses = nodes[kept_nodes]
    links = np.empty((0, 2), dtype=np.intp)
    if inventory.n_links and kept_addresses.size:
        rows = positions(kept_addresses, inventory.links)
        links = rows[np.all(rows >= 0, axis=1)]
    dataset = MappedDataset(
        label=label,
        kind=inventory.kind,
        addresses=kept_addresses,
        lats=kept_lats,
        lons=kept_lons,
        asns=kept_asns,
        links=links,
    )
    report = ProcessingReport(
        label=label,
        n_raw_nodes=n_nodes,
        n_unmapped=n_nodes - int(voted_nodes.size),
        n_location_ties=int(np.count_nonzero(tied)),
        n_as_unmapped=int(np.count_nonzero(kept_asns == UNMAPPED_ASN)),
    )
    return dataset, report


@dataclass
class PipelineResult:
    """Everything a reproduction run produces.

    Attributes:
        config: the scenario that was run.
        world: the synthetic world (population, cities, zones).
        topology: the planted ground truth.
        plan: the address registry.
        generation_report: planted-parameter record.
        bgp_table: the RouteViews-style snapshot used for AS mapping.
        datasets: label -> processed dataset, for all four Table I rows.
        processing_reports: label -> mapping-stage bookkeeping.
    """

    config: ScenarioConfig
    world: World
    topology: Topology
    plan: AddressPlan
    generation_report: GenerationReport
    bgp_table: BgpTable
    datasets: dict[str, MappedDataset] = field(default_factory=dict)
    processing_reports: dict[str, ProcessingReport] = field(default_factory=dict)

    def dataset(self, mapper: str, measurement: str) -> MappedDataset:
        """Fetch one dataset by tool names, e.g. ``("IxMapper", "Skitter")``.

        Raises:
            DatasetError: when the combination was not produced.
        """
        label = f"{mapper}, {measurement}"
        if label not in self.datasets:
            raise DatasetError(
                f"no dataset {label!r}; have {sorted(self.datasets)}"
            )
        return self.datasets[label]


# --- Stage functions ---------------------------------------------------------


def _stage_world(ctx: StageContext) -> World:
    return build_world(ctx.rng, city_scale=ctx.config.city_scale)


def _stage_ground_truth(
    ctx: StageContext,
) -> tuple[Topology, AddressPlan, GenerationReport]:
    return generate_ground_truth(
        ctx.input(STAGE_WORLD), ctx.config.ground_truth, ctx.rng
    )


def _stage_bgp(ctx: StageContext) -> BgpTable:
    _, plan, _ = ctx.input(STAGE_GROUND_TRUTH)
    return build_routeviews_snapshot(plan, ctx.config.bgp, ctx.rng)


def _stage_geo_context(ctx: StageContext) -> GeoContext:
    topology, plan, _ = ctx.input(STAGE_GROUND_TRUTH)
    return build_context(
        ctx.input(STAGE_WORLD), topology, plan, ctx.config.geoloc, ctx.rng
    )


def _stage_skitter(ctx: StageContext) -> RawInventory:
    topology, _, _ = ctx.input(STAGE_GROUND_TRUTH)
    raw = run_skitter(topology, ctx.config.skitter, ctx.rng)
    cleaned, _ = clean_inventory(raw)
    return cleaned


def _stage_mercator(ctx: StageContext) -> RawInventory:
    topology, _, _ = ctx.input(STAGE_GROUND_TRUTH)
    raw = run_mercator(topology, ctx.config.mercator, ctx.rng)
    cleaned, _ = clean_inventory(raw)
    return cleaned


def _make_mapper(
    mapper: str,
    context: GeoContext,
    topology: Topology,
    config: ScenarioConfig,
    rng: np.random.Generator,
) -> Geolocator:
    """A fresh geolocator instance for one mapping pass."""
    if mapper == "IxMapper":
        return IxMapper(
            context, rng, failure_rate=config.geoloc.ixmapper_unmapped_rate
        )
    if mapper == "EdgeScape":
        return EdgeScape(
            context,
            topology,
            rng,
            isp_coverage=config.geoloc.edgescape_isp_coverage,
            failure_rate=config.geoloc.edgescape_unmapped_rate,
        )
    raise DatasetError(f"unknown mapper {mapper!r}")


def _make_mapping_stage(mapper: str, measurement: str):
    """A stage function running one (mapper, measurement) pass."""

    def run(ctx: StageContext) -> tuple[MappedDataset, ProcessingReport]:
        topology, _, _ = ctx.input(STAGE_GROUND_TRUTH)
        geolocator = _make_mapper(
            mapper, ctx.input(STAGE_GEO_CONTEXT), topology, ctx.config, ctx.rng
        )
        return build_snapshot(
            ctx.input(_MEASUREMENT_STAGES[measurement]),
            geolocator,
            ctx.input(STAGE_BGP),
            f"{mapper}, {measurement}",
        )

    return run


# --- Snapshot cache codec ----------------------------------------------------
#
# Mapping-stage artifacts are (MappedDataset, ProcessingReport) pairs —
# the shareable output of the study — so they are cached in the
# library's JSON interchange format (datasets/serialize.py) rather than
# pickled.


def _dump_snapshot(value: tuple[MappedDataset, ProcessingReport], path: Path) -> None:
    dataset, report = value
    payload = {
        "dataset": dataset_to_dict(dataset),
        "report": dataclasses.asdict(report),
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _load_snapshot(path: Path) -> tuple[MappedDataset, ProcessingReport]:
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return (
        dataset_from_dict(payload["dataset"]),
        ProcessingReport(**payload["report"]),
    )


register_codec("snapshot-json", ".json", _dump_snapshot, _load_snapshot)


# --- Ground-truth cache codec ------------------------------------------------
#
# The ground-truth artifact is (Topology, AddressPlan, GenerationReport).
# The topology's column arrays go straight into a compressed-free ``.npz``
# archive — no per-object pickling — with the plan and report attached as
# a JSON sidecar string inside the same file.


def _dump_ground_truth(
    value: tuple[Topology, AddressPlan, GenerationReport], path: Path
) -> None:
    topology, plan, report = value
    meta = {"plan": plan.to_dict(), "report": dataclasses.asdict(report)}
    topology.to_npz(path, extra={"meta_json": json.dumps(meta)})


def _load_ground_truth(
    path: Path,
) -> tuple[Topology, AddressPlan, GenerationReport]:
    topology = Topology.from_npz(path)
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta_json"]))
    plan = AddressPlan.from_dict(meta["plan"])
    report_fields = dict(meta["report"])
    report_fields["as_sizes"] = {
        int(asn): count for asn, count in report_fields["as_sizes"].items()
    }
    report = GenerationReport(**report_fields)
    return topology, plan, report


register_codec("ground-truth-npz", ".npz", _dump_ground_truth, _load_ground_truth)


def build_pipeline_graph() -> StageGraph:
    """The reproduction's stage DAG.

    Stage registration order is part of the contract: per-stage RNG
    streams are assigned by this order (see ``StageGraph.seed_streams``),
    so reordering registrations changes every golden value.
    """
    graph = StageGraph()
    graph.add(Stage(name=STAGE_WORLD, fn=_stage_world))
    graph.add(
        Stage(
            name=STAGE_GROUND_TRUTH,
            fn=_stage_ground_truth,
            inputs=(STAGE_WORLD,),
            codec="ground-truth-npz",
        )
    )
    graph.add(Stage(name=STAGE_BGP, fn=_stage_bgp, inputs=(STAGE_GROUND_TRUTH,)))
    graph.add(
        Stage(
            name=STAGE_GEO_CONTEXT,
            fn=_stage_geo_context,
            inputs=(STAGE_WORLD, STAGE_GROUND_TRUTH),
        )
    )
    graph.add(
        Stage(name=STAGE_SKITTER, fn=_stage_skitter, inputs=(STAGE_GROUND_TRUTH,))
    )
    graph.add(
        Stage(name=STAGE_MERCATOR, fn=_stage_mercator, inputs=(STAGE_GROUND_TRUTH,))
    )
    for measurement in MEASUREMENT_NAMES:
        for mapper in MAPPER_NAMES:
            graph.add(
                Stage(
                    name=mapping_stage_name(mapper, measurement),
                    fn=_make_mapping_stage(mapper, measurement),
                    inputs=(
                        STAGE_GROUND_TRUTH,
                        STAGE_GEO_CONTEXT,
                        STAGE_BGP,
                        _MEASUREMENT_STAGES[measurement],
                    ),
                    codec="snapshot-json",
                )
            )
    return graph


def run_pipeline(
    config: ScenarioConfig,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    telemetry: Telemetry | None = None,
) -> PipelineResult:
    """Run the full reproduction pipeline for one scenario.

    Args:
        config: the scenario to reproduce.
        jobs: worker threads for independent stages (1 = serial).  The
            result is bit-for-bit identical for any value.
        cache_dir: optional artifact-cache directory; warm runs serve
            generation/measurement stages from disk.
        telemetry: optional per-stage event collector (``--profile``).
    """
    graph = build_pipeline_graph()
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    with obs_span("pipeline", seed=config.seed, jobs=jobs) as pipeline_span:
        artifacts = execute(
            graph,
            config,
            seed=config.seed,
            jobs=jobs,
            cache=cache,
            telemetry=telemetry,
        )
        if cache is not None:
            pipeline_span.set(cache_hits=cache.hits, cache_misses=cache.misses)
    topology, plan, generation_report = artifacts[STAGE_GROUND_TRUTH]
    result = PipelineResult(
        config=config,
        world=artifacts[STAGE_WORLD],
        topology=topology,
        plan=plan,
        generation_report=generation_report,
        bgp_table=artifacts[STAGE_BGP],
    )
    for measurement in MEASUREMENT_NAMES:
        for mapper in MAPPER_NAMES:
            label = f"{mapper}, {measurement}"
            dataset, report = artifacts[mapping_stage_name(mapper, measurement)]
            result.datasets[label] = dataset
            result.processing_reports[label] = report
    return result
