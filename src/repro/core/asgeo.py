"""Section VI: autonomous systems and geography.

One per-AS table feeds every analysis:

* :func:`as_table` — node count, distinct locations, AS-graph degree,
  centroid and convex-hull extent of every mapped AS, built from one
  AS-grouped sort.  The serving index (``/as/<asn>``) and the streaming
  analytics read the same table.
* :func:`as_size_measures` — per-AS size triple: node count (interfaces
  or routers), number of distinct locations, and degree in the AS graph.
* :func:`size_distributions` / :func:`size_correlations` — Figures 7-8:
  all three measures are long-tailed and pairwise correlated, with
  interfaces-vs-locations the tightest pair.
* :func:`hull_areas` / :func:`hull_summary` — Figures 9-10: convex-hull
  area of each AS's node set under the Albers equal-area projection;
  ~80% of ASes have zero extent, small ASes vary wildly, and every AS
  beyond a size cutoff is maximally dispersed.
* :func:`link_domain_table` — Table VI: intradomain links are the large
  majority and about half as long as interdomain links.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.table import UNMAPPED_ASN
from repro.core.stats import (
    ccdf_loglog_points,
    pearson_correlation,
    spearman_correlation,
    tail_span_decades,
)
from repro.datasets.mapped import LOCATION_DECIMALS, MappedDataset
from repro.errors import AnalysisError, GeoError
from repro.geo.hull import sorted_hull_area
from repro.geo.projection import WORLD_ALBERS
from repro.geo.regions import Region


@dataclass(frozen=True)
class AsTable:
    """Section VI facts about every mapped AS, in parallel arrays.

    Attributes:
        asns: sorted AS numbers (the unmapped sentinel is omitted).
        n_nodes: mapped nodes per AS.
        n_locations: distinct rounded locations per AS.
        degree: AS-graph degree per AS.
        centroid_lat, centroid_lon: mean node position per AS.
        hull_area: convex-hull extent per AS in square miles (world
            Albers projection).
        rows: node rows grouped by AS, ascending within each AS.
        offsets: AS ``i`` owns ``rows[offsets[i]:offsets[i + 1]]``.
    """

    asns: np.ndarray
    n_nodes: np.ndarray
    n_locations: np.ndarray
    degree: np.ndarray
    centroid_lat: np.ndarray
    centroid_lon: np.ndarray
    hull_area: np.ndarray
    rows: np.ndarray
    offsets: np.ndarray

    @property
    def n_ases(self) -> int:
        """Number of ASes in the table."""
        return int(self.asns.shape[0])

    def find(self, asn: int) -> int:
        """Position of ``asn`` in the table, or -1 when it is absent."""
        i = int(np.searchsorted(self.asns, asn))
        if i < self.asns.size and self.asns[i] == asn:
            return i
        return -1

    def nodes(self, i: int) -> np.ndarray:
        """Node rows of the AS at position ``i``, ascending."""
        return self.rows[self.offsets[i]:self.offsets[i + 1]]


def _run_starts(group: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """True where a sorted entry starts a new run of (group, *keys)."""
    starts = np.ones(group.size, dtype=bool)
    if group.size:
        change = group[1:] != group[:-1]
        for key in keys:
            change |= key[1:] != key[:-1]
        starts[1:] = change
    return starts


def as_table(dataset: MappedDataset) -> AsTable:
    """The per-AS table of a dataset, for every mapped AS.

    Every figure equals a computation over that AS's own rows alone:
    ``np.unique`` over rounded location keys, ``np.mean`` of the rows'
    coordinates in row order, and
    :func:`~repro.geo.hull.convex_hull_area` over the projected points.
    The hull is only computed for ASes with at least three distinct
    projected points; with fewer it is zero.

    Raises:
        GeoError: when a mapped node's projected position is not finite.
    """
    mapped = np.flatnonzero(dataset.asns != UNMAPPED_ASN)
    rows = mapped[np.argsort(dataset.asns[mapped], kind="stable")]
    starts = np.flatnonzero(_run_starts(dataset.asns[rows]))
    asns = dataset.asns[rows[starts]]
    offsets = np.append(starts, rows.size)
    n_nodes = np.diff(offsets)
    group = np.repeat(np.arange(asns.size), n_nodes)
    lats = dataset.lats[rows]
    lons = dataset.lons[rows]

    key_lat = np.round(lats, LOCATION_DECIMALS)
    key_lon = np.round(lons, LOCATION_DECIMALS)
    order = np.lexsort((key_lon, key_lat, group))
    new = _run_starts(group[order], key_lat[order], key_lon[order])
    n_locations = np.bincount(group[order][new], minlength=asns.size)

    # Distinct projected points per AS, sorted by (x, y) and deduped
    # exactly as convex_hull does (first of each run kept); fewer than
    # three have no extent.
    x, y = WORLD_ALBERS.project(dataset.lats, dataset.lons)
    x, y = x[rows], y[rows]
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise GeoError("points must be finite")
    order = np.lexsort((y, x, group))
    order = order[_run_starts(group[order], x[order], y[order])]
    bounds = np.searchsorted(group[order], np.arange(asns.size + 1)).tolist()
    points = np.column_stack([x[order], y[order]]).tolist()
    hull_area = np.zeros(asns.size)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi - lo >= 3:
            hull_area[i] = sorted_hull_area(points[lo:hi])

    # np.mean of a float array is np.add.reduce over it divided by the
    # count; calling the reduction directly skips mean's overhead.
    centroid_lat = np.empty(asns.size)
    centroid_lon = np.empty(asns.size)
    for i, (lo, hi) in enumerate(zip(starts.tolist(), offsets[1:].tolist())):
        centroid_lat[i] = np.add.reduce(lats[lo:hi]) / (hi - lo)
        centroid_lon[i] = np.add.reduce(lons[lo:hi]) / (hi - lo)

    return AsTable(
        asns=asns,
        n_nodes=n_nodes.astype(np.int64),
        n_locations=n_locations.astype(np.int64),
        degree=dataset.as_degree_array(),
        centroid_lat=centroid_lat,
        centroid_lon=centroid_lon,
        hull_area=hull_area,
        rows=rows,
        offsets=offsets,
    )


def as_size_measures(dataset: MappedDataset) -> AsTable:
    """The per-AS table, for its three size measures (Figures 7-8): node
    count, distinct locations and AS degree.

    The unmapped sentinel group is omitted, as in the paper.

    Raises:
        AnalysisError: when the dataset maps no AS at all.
    """
    table = as_table(dataset)
    if table.n_ases == 0:
        raise AnalysisError("dataset contains no AS-mapped nodes")
    return table


@dataclass(frozen=True)
class SizeDistributions:
    """Figure 7: CCDFs (log-log points) of the three size measures.

    Attributes:
        nodes_ccdf: (log10 value, log10 P[X > value]) for node counts.
        locations_ccdf: same for location counts.
        degree_ccdf: same for AS degree.
        decades: decades spanned by each measure (long-tail summary).
    """

    nodes_ccdf: tuple[np.ndarray, np.ndarray]
    locations_ccdf: tuple[np.ndarray, np.ndarray]
    degree_ccdf: tuple[np.ndarray, np.ndarray]
    decades: dict[str, float]


def size_distributions(table: AsTable) -> SizeDistributions:
    """Figure 7's three complementary distributions."""
    return SizeDistributions(
        nodes_ccdf=ccdf_loglog_points(table.n_nodes),
        locations_ccdf=ccdf_loglog_points(table.n_locations),
        degree_ccdf=ccdf_loglog_points(table.degree),
        decades={
            "nodes": tail_span_decades(table.n_nodes),
            "locations": tail_span_decades(table.n_locations),
            "degree": tail_span_decades(table.degree),
        },
    )


@dataclass(frozen=True)
class SizeCorrelations:
    """Figure 8: pairwise association of the three size measures.

    Pearson correlations are computed on log10 values over ASes where
    both measures are positive; Spearman over all ASes.
    """

    pearson_nodes_locations: float
    pearson_nodes_degree: float
    pearson_locations_degree: float
    spearman_nodes_locations: float
    spearman_nodes_degree: float
    spearman_locations_degree: float


def _log_pearson(x: np.ndarray, y: np.ndarray) -> float:
    keep = (x > 0) & (y > 0)
    if int(keep.sum()) < 3:
        raise AnalysisError("not enough positive pairs for a log correlation")
    return pearson_correlation(np.log10(x[keep]), np.log10(y[keep]))


def size_correlations(table: AsTable) -> SizeCorrelations:
    """Figure 8's correlation summary.

    Raises:
        AnalysisError: when too few ASes have positive measures.
    """
    return SizeCorrelations(
        pearson_nodes_locations=_log_pearson(table.n_nodes, table.n_locations),
        pearson_nodes_degree=_log_pearson(table.n_nodes, table.degree),
        pearson_locations_degree=_log_pearson(table.n_locations, table.degree),
        spearman_nodes_locations=spearman_correlation(
            table.n_nodes.astype(float), table.n_locations.astype(float)
        ),
        spearman_nodes_degree=spearman_correlation(
            table.n_nodes.astype(float), table.degree.astype(float)
        ),
        spearman_locations_degree=spearman_correlation(
            table.n_locations.astype(float), table.degree.astype(float)
        ),
    )


@dataclass(frozen=True)
class HullTable:
    """Per-AS convex hull areas (square miles), parallel to a size table.

    Attributes:
        asns: AS numbers.
        areas: hull area per AS under the Albers projection.
        zero_fraction: fraction of ASes with zero extent (Figure 9 shows
            ~80%).
    """

    asns: np.ndarray
    areas: np.ndarray

    @property
    def zero_fraction(self) -> float:
        """Fraction of ASes with zero hull area."""
        if self.areas.size == 0:
            return 0.0
        return float(np.mean(self.areas == 0.0))

    def cdf_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(area, P[X <= area]) for CDF plots (Figure 9)."""
        order = np.sort(self.areas)
        p = np.arange(1, order.size + 1) / order.size
        return order, p


def hull_areas(dataset: MappedDataset, region: Region | None = None) -> HullTable:
    """Convex-hull area of every AS's node set (Figure 9 input).

    A view of :func:`as_table`.  When ``region`` is given the dataset is
    first restricted to it, as in the paper's US/Europe panels.

    Raises:
        AnalysisError: when no AS-mapped nodes remain.
    """
    if region is not None:
        dataset = dataset.restrict(region)
    table = as_table(dataset)
    if table.n_ases == 0:
        raise AnalysisError("no AS-mapped nodes for hull analysis")
    return HullTable(asns=table.asns, areas=table.hull_area)


@dataclass(frozen=True)
class DispersalSummary:
    """Figure 10: hull area against a size measure, with the cutoff check.

    Attributes:
        size_measure: which measure (e.g. "nodes").
        sizes: per-AS size values (parallel to areas).
        areas: per-AS hull areas.
        cutoff: size threshold tested.
        min_area_above_cutoff: smallest hull among ASes above the cutoff.
        max_area: largest hull overall (the "maximally dispersed" level).
        dispersal_ratio: min_area_above_cutoff / max_area (close to 1
            means every large AS is maximally dispersed).
    """

    size_measure: str
    sizes: np.ndarray
    areas: np.ndarray
    cutoff: float
    min_area_above_cutoff: float
    max_area: float

    @property
    def dispersal_ratio(self) -> float:
        """How dispersed the least-dispersed large AS is, relative to max."""
        if self.max_area <= 0:
            return 0.0
        return self.min_area_above_cutoff / self.max_area


def hull_vs_size(
    table: AsTable,
    hulls: HullTable,
    size_measure: str = "nodes",
    cutoff: float | None = None,
) -> DispersalSummary:
    """Figure 10: relate hull area to a size measure.

    Default cutoffs follow the paper: degree 100, locations 100,
    nodes 1000.

    Raises:
        AnalysisError: on unknown measure or misaligned tables.
    """
    if not np.array_equal(table.asns, hulls.asns):
        raise AnalysisError("size table and hull table cover different ASes")
    measures = {
        "nodes": (table.n_nodes, 1000.0),
        "locations": (table.n_locations, 100.0),
        "degree": (table.degree, 100.0),
    }
    if size_measure not in measures:
        raise AnalysisError(f"unknown size measure {size_measure!r}")
    sizes, default_cutoff = measures[size_measure]
    if cutoff is None:
        cutoff = default_cutoff
    above = sizes >= cutoff
    max_area = float(hulls.areas.max()) if hulls.areas.size else 0.0
    min_above = float(hulls.areas[above].min()) if above.any() else 0.0
    return DispersalSummary(
        size_measure=size_measure,
        sizes=sizes.astype(float),
        areas=hulls.areas,
        cutoff=float(cutoff),
        min_area_above_cutoff=min_above,
        max_area=max_area,
    )


@dataclass(frozen=True, slots=True)
class LinkDomainRow:
    """One Table VI row.

    Attributes:
        region: region name.
        n_interdomain: interdomain link count.
        mean_interdomain_miles: their mean length.
        n_intradomain: intradomain link count.
        mean_intradomain_miles: their mean length.
    """

    region: str
    n_interdomain: int
    mean_interdomain_miles: float
    n_intradomain: int
    mean_intradomain_miles: float

    @property
    def intradomain_fraction(self) -> float:
        """Share of classified links that stay inside one AS."""
        total = self.n_interdomain + self.n_intradomain
        return self.n_intradomain / total if total else 0.0


def link_domain_row(dataset: MappedDataset, region_name: str) -> LinkDomainRow:
    """Inter/intradomain counts and mean lengths for one (sub)dataset.

    Raises:
        AnalysisError: when the dataset has no classifiable links.
    """
    inter = dataset.interdomain_mask()
    intra = dataset.intradomain_mask()
    if not inter.any() and not intra.any():
        raise AnalysisError(f"no classifiable links in {region_name!r}")
    lengths = dataset.link_lengths()
    return LinkDomainRow(
        region=region_name,
        n_interdomain=int(inter.sum()),
        mean_interdomain_miles=float(lengths[inter].mean()) if inter.any() else 0.0,
        n_intradomain=int(intra.sum()),
        mean_intradomain_miles=float(lengths[intra].mean()) if intra.any() else 0.0,
    )


def link_domain_table(
    dataset: MappedDataset, regions: tuple[Region, ...]
) -> list[LinkDomainRow]:
    """Table VI: a world row followed by one row per region."""
    rows = [link_domain_row(dataset, "World")]
    for region in regions:
        try:
            rows.append(link_domain_row(dataset.restrict(region), region.name))
        except AnalysisError:
            continue
    return rows
