"""One runner per table and figure of the paper.

Each function takes a :class:`~repro.datasets.pipeline.PipelineResult`
and returns a typed result object holding exactly the rows or series the
corresponding paper artefact reports.  The benchmark harness calls these
and prints them via :mod:`repro.core.report`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from repro.core.asgeo import (
    AsTable,
    DispersalSummary,
    HullTable,
    LinkDomainRow,
    SizeCorrelations,
    SizeDistributions,
    as_size_measures,
    hull_areas,
    hull_vs_size,
    link_domain_table,
    size_correlations,
    size_distributions,
)
from repro.core.density import (
    PatchRegression,
    RegionDensityRow,
    density_variation,
    homogeneity_table,
    patch_regression,
    region_density_table,
)
from repro.core.distance import (
    PAPER_BIN_MILES,
    CumulatedPreference,
    DistancePreference,
    SensitivityLimit,
    WaxmanFit,
    cumulated_preference,
    preference_function,
    sensitivity_limit,
    waxman_fit,
)
from repro.datasets.mapped import MappedDataset
from repro.datasets.pipeline import PipelineResult, run_pipeline
from repro.errors import AnalysisError
from repro.generators.base import GeneratedGraph
from repro.obs import span as obs_span
from repro.geo.fractal import BoxCountResult, box_counting_dimension
from repro.geo.projection import equirectangular_miles
from repro.geo.regions import EUROPE, STUDY_REGIONS, US, WORLD, Region

#: Measurement datasets, in the paper's presentation order.
MEASUREMENTS = ("Mercator", "Skitter")
#: Mapping tools, IxMapper first (the paper's main-text tool).
MAPPERS = ("IxMapper", "EdgeScape")

_F = TypeVar("_F", bound=Callable)


def _traced(artefact: str) -> Callable[[_F], _F]:
    """Wrap a runner in an ``experiment:<artefact>`` span.

    With no active tracer (library use, tests) the wrapper is a single
    context lookup; under ``--report`` every table/figure gets its own
    span so per-artefact analysis cost lands in the run report.
    """

    def decorate(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs_span(f"experiment:{artefact}"):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def prepare_result(
    config,
    *,
    jobs: int = 1,
    cache_dir=None,
    telemetry=None,
) -> PipelineResult:
    """The pipeline result behind every experiment, via the staged runtime.

    With ``cache_dir`` set, a warm cache serves the generation,
    measurement, and mapping stages from disk so repeated experiment
    runs (CLI invocations, benchmark sessions) skip regeneration; the
    loaded result is identical to a cold run.  ``jobs > 1`` overlaps
    independent stages without changing any output bit.
    """
    return run_pipeline(
        config, jobs=jobs, cache_dir=cache_dir, telemetry=telemetry
    )


# --- Table I -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Table1Row:
    """Sizes of one processed dataset.

    Attributes:
        label: dataset label (mapper, measurement).
        n_nodes: mapped node count.
        n_links: observed link count.
        n_locations: distinct locations.
    """

    label: str
    n_nodes: int
    n_links: int
    n_locations: int


@_traced("table1")
def table1(result: PipelineResult) -> list[Table1Row]:
    """Table I: sizes of all four processed datasets."""
    rows = []
    for mapper in MAPPERS:
        for measurement in MEASUREMENTS:
            ds = result.dataset(mapper, measurement)
            rows.append(
                Table1Row(
                    label=ds.label,
                    n_nodes=ds.n_nodes,
                    n_links=ds.n_links,
                    n_locations=ds.n_locations,
                )
            )
    return rows


# --- Tables III and IV --------------------------------------------------------


@dataclass(frozen=True)
class Table3Result:
    """Table III rows plus the headline variation contrast.

    Attributes:
        rows: one per economic region.
        people_variation: max/min people-per-node across rows (paper >100).
        online_variation: max/min online-per-node (paper ~4).
    """

    rows: list[RegionDensityRow]
    people_variation: float
    online_variation: float


@_traced("table3")
def table3(result: PipelineResult, mapper: str = "IxMapper") -> Table3Result:
    """Table III over the Skitter dataset (the paper's choice)."""
    dataset = result.dataset(mapper, "Skitter")
    rows = region_density_table(dataset, result.world.field)
    # Variation is computed over the named regions, excluding the World
    # aggregate row.
    named = [r for r in rows if r.region != "World"]
    people_var, online_var = density_variation(named)
    return Table3Result(
        rows=rows, people_variation=people_var, online_variation=online_var
    )


@_traced("table4")
def table4(
    result: PipelineResult, mapper: str = "IxMapper"
) -> list[RegionDensityRow]:
    """Table IV: the homogeneity test rows."""
    dataset = result.dataset(mapper, "Skitter")
    return homogeneity_table(dataset, result.world.field)


# --- Table V -------------------------------------------------------------------


@dataclass(frozen=True)
class Table5Row:
    """One Table V row: distance-sensitivity limit for dataset x region.

    Attributes:
        measurement: "Mercator" or "Skitter".
        region: region name.
        limit: the sensitivity result (limit miles + fraction below).
    """

    measurement: str
    region: str
    limit: SensitivityLimit


@_traced("table5")
def table5(result: PipelineResult, mapper: str = "IxMapper") -> list[Table5Row]:
    """Table V rows for both measurements across the study regions.

    Regions whose data cannot support the two-regime fit are skipped
    (small scenarios may not populate Japan densely enough).
    """
    rows = []
    for measurement in MEASUREMENTS:
        dataset = result.dataset(mapper, measurement)
        for region in STUDY_REGIONS:
            try:
                pref = preference_function(
                    dataset, region, PAPER_BIN_MILES[region.name]
                )
                rows.append(
                    Table5Row(
                        measurement=measurement,
                        region=region.name,
                        limit=sensitivity_limit(pref),
                    )
                )
            except AnalysisError:
                continue
    if not rows:
        raise AnalysisError("no region supported a sensitivity-limit fit")
    return rows


@_traced("table6")
def table6(
    result: PipelineResult, mapper: str = "IxMapper"
) -> list[LinkDomainRow]:
    """Table VI: intra vs interdomain links (Skitter dataset)."""
    dataset = result.dataset(mapper, "Skitter")
    return link_domain_table(dataset, STUDY_REGIONS)


# --- Figures 1-6 ------------------------------------------------------------------


@_traced("figure1")
def figure1(
    result: PipelineResult, mapper: str = "IxMapper"
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Figure 1: mapped node coordinates per study region (Skitter)."""
    dataset = result.dataset(mapper, "Skitter")
    series = {}
    for region in STUDY_REGIONS:
        sub = dataset.restrict(region)
        series[region.name] = (sub.lats, sub.lons)
    return series


@_traced("figure2")
def figure2(
    result: PipelineResult, mapper: str = "IxMapper"
) -> dict[tuple[str, str], PatchRegression]:
    """Figure 2: patch regressions for both datasets x three regions."""
    panels = {}
    for measurement in MEASUREMENTS:
        dataset = result.dataset(mapper, measurement)
        for region in STUDY_REGIONS:
            try:
                panels[(measurement, region.name)] = patch_regression(
                    dataset, result.world.field, region
                )
            except AnalysisError:
                continue
    if not panels:
        raise AnalysisError("no panel had enough data for a patch regression")
    return panels


@_traced("figure4")
def figure4(
    result: PipelineResult, mapper: str = "IxMapper"
) -> dict[tuple[str, str], DistancePreference]:
    """Figure 4: empirical f(d) for both datasets x three regions."""
    panels = {}
    for measurement in MEASUREMENTS:
        dataset = result.dataset(mapper, measurement)
        for region in STUDY_REGIONS:
            try:
                panels[(measurement, region.name)] = preference_function(
                    dataset, region, PAPER_BIN_MILES[region.name]
                )
            except AnalysisError:
                continue
    if not panels:
        raise AnalysisError("no panel had enough data for f(d)")
    return panels


@_traced("figure5")
def figure5(
    panels: dict[tuple[str, str], DistancePreference]
) -> dict[tuple[str, str], WaxmanFit]:
    """Figure 5: small-d exponential fits for each f(d) panel."""
    fits = {}
    for key, pref in panels.items():
        try:
            fits[key] = waxman_fit(pref)
        except AnalysisError:
            continue
    if not fits:
        raise AnalysisError("no panel supported a Waxman fit")
    return fits


@_traced("figure6")
def figure6(
    panels: dict[tuple[str, str], DistancePreference]
) -> dict[tuple[str, str], CumulatedPreference]:
    """Figure 6: cumulated F(d) with large-d linear fits."""
    curves = {}
    for key, pref in panels.items():
        try:
            curves[key] = cumulated_preference(pref)
        except AnalysisError:
            continue
    if not curves:
        raise AnalysisError("no panel supported the cumulated fit")
    return curves


# --- Figures 7-10 ---------------------------------------------------------------


@dataclass(frozen=True)
class AsGeographyResult:
    """Everything Section VI derives from one dataset.

    Attributes:
        table: per-AS size measures.
        distributions: Figure 7 CCDFs.
        correlations: Figure 8 correlation summary.
        hulls_world: Figure 9(a) hull areas (world).
        hulls_us: Figure 9(b), restricted to the US box.
        hulls_europe: Figure 9(c), restricted to the Europe box.
        dispersal: Figure 10 summaries per size measure.
    """

    table: AsTable
    distributions: SizeDistributions
    correlations: SizeCorrelations
    hulls_world: HullTable
    hulls_us: HullTable
    hulls_europe: HullTable
    dispersal: dict[str, DispersalSummary]


@_traced("figures7-10")
def figures7_to_10(
    result: PipelineResult,
    mapper: str = "IxMapper",
    measurement: str = "Skitter",
) -> AsGeographyResult:
    """Figures 7-10 from one dataset (paper: Skitter with IxMapper)."""
    dataset = result.dataset(mapper, measurement)
    table = as_size_measures(dataset)
    hulls_world = hull_areas(dataset)
    dispersal = {
        measure: hull_vs_size(table, hulls_world, size_measure=measure)
        for measure in ("nodes", "locations", "degree")
    }
    return AsGeographyResult(
        table=table,
        distributions=size_distributions(table),
        correlations=size_correlations(table),
        hulls_world=hulls_world,
        hulls_us=hull_areas(dataset, region=US),
        hulls_europe=hull_areas(dataset, region=EUROPE),
        dispersal=dispersal,
    )


# --- X1: fractal dimension ---------------------------------------------------------


@dataclass(frozen=True)
class FractalResult:
    """Box-counting dimensions of routers and population (X1).

    Attributes:
        routers: dimension of the mapped node set.
        population: dimension of the population point field.
    """

    routers: BoxCountResult
    population: BoxCountResult


@_traced("x1")
def experiment_x1(
    result: PipelineResult,
    region: Region = US,
) -> FractalResult:
    """X1: confirm routers and population share a fractal dimension ~1.5.

    Router positions come from the ground truth (physical placement):
    mapped datasets snap to city centres, which saturates the box count
    at the number of cities and biases the dimension toward zero —
    geolocation granularity, not placement geometry.
    """
    lats, lons = result.topology.router_coordinates()
    mask = region.contains_mask(lats, lons)
    rx, ry = equirectangular_miles(lats[mask], lons[mask])
    field = result.world.field
    fmask = region.contains_mask(field.lats, field.lons)
    px, py = equirectangular_miles(field.lats[fmask], field.lons[fmask])
    return FractalResult(
        routers=box_counting_dimension(rx, ry),
        population=box_counting_dimension(px, py),
    )


# --- X2: generator comparison ---------------------------------------------------------


def dataset_from_graph(graph: GeneratedGraph) -> MappedDataset:
    """Wrap a generated graph as a dataset so the analyses apply to it.

    When the graph records its generation seed the label carries it
    (``"waxman#7"``), so datasets derived from different sweep trials
    stay distinguishable in reports and artifact hashes.
    """
    label = graph.name if graph.seed is None else f"{graph.name}#{graph.seed}"
    return MappedDataset(
        label=label,
        kind="generated",
        addresses=np.arange(graph.n_nodes, dtype=np.int64),
        lats=graph.lats,
        lons=graph.lons,
        asns=graph.asns,
        links=graph.edges,
    )


@dataclass(frozen=True)
class GeneratorComparison:
    """X2: distance-preference characteristics of one generator.

    Attributes:
        name: generator name.
        preference: its f(d) over the analysis region.
        decay_slope: semi-log slope of the small-d window (negative means
            distance-sensitive; near zero means geometry-blind).
        mean_degree: the generated graph's mean degree.
        seed: the graph's generation seed when known, so a sweep cell
            can re-create the exact comparison.
    """

    name: str
    preference: DistancePreference
    decay_slope: float
    mean_degree: float
    seed: int | None = None


def compare_generator(
    graph: GeneratedGraph,
    region: Region = WORLD,
    bin_miles: float = 35.0,
) -> GeneratorComparison:
    """Characterise a generated graph's distance preference.

    Unlike :func:`waxman_fit` this never raises on a flat profile — a
    flat (near-zero) slope is exactly the finding for geometry-blind
    generators.
    """
    dataset = dataset_from_graph(graph)
    pref = preference_function(dataset, region, bin_miles)
    window = (
        (pref.bin_left < 20 * bin_miles)
        & (pref.pair_counts > 0)
        & (pref.link_counts > 0)
    )
    if int(window.sum()) >= 3:
        from repro.core.stats import semilog_fit

        x = pref.bin_left[window] + bin_miles / 2.0
        slope = semilog_fit(x, pref.f_hat[window]).slope
    else:
        slope = float("nan")
    return GeneratorComparison(
        name=graph.name,
        preference=pref,
        decay_slope=float(slope),
        mean_degree=graph.mean_degree(),
        seed=graph.seed,
    )
