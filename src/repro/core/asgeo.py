"""Section VI: autonomous systems and geography.

One per-AS table feeds every analysis:

* :func:`as_table` — node count, distinct locations, AS-graph degree,
  centroid and convex-hull extent of every mapped AS, built in
  whole-array passes with no loop over ASes.  The serving index
  (``/as/<asn>``) and the streaming analytics read the same table.
* :func:`as_size_measures` — per-AS size triple: node count (interfaces
  or routers), number of distinct locations, and degree in the AS graph.
* :func:`size_distributions` / :func:`size_correlations` — Figures 7-8:
  all three measures are long-tailed and pairwise correlated, with
  interfaces-vs-locations the tightest pair.
* :func:`hull_areas` / :func:`hull_vs_size` — Figures 9-10: convex-hull
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
from repro.geo.hull import grouped_hull_areas
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
        centroid_lat, centroid_lon: mean node position per AS, the
            coordinates summed in row order.
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


def _dense_rank(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each ``(a, b)`` pair in lexicographic order, equal pairs
    sharing a rank, and the position of each rank's first pair."""
    order = np.lexsort((b, a))
    new = _run_starts(a[order], b[order])
    rank = np.empty(a.size, dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, order[new]


def _distinct_keys(group: np.ndarray, key: np.ndarray, n_keys: int) -> np.ndarray:
    """The distinct ``(group, key)`` pairs as sorted codes
    ``group * n_keys + key``."""
    codes = np.sort(group * n_keys + key)
    return codes[_run_starts(codes)]


def as_table(dataset: MappedDataset) -> AsTable:
    """The per-AS table of a dataset, for every mapped AS.

    Every figure equals a computation over that AS's own rows alone:
    ``np.unique`` over rounded location keys, the sum of the rows'
    coordinates in row order divided by the node count, and
    :func:`~repro.geo.hull.convex_hull_area` over the projected points.
    All ASes are computed together in whole-array passes; no Python loop
    runs over ASes.

    Raises:
        GeoError: when a mapped node's projected position is not finite.
    """
    mapped = np.flatnonzero(dataset.asns != UNMAPPED_ASN)
    # Rows grouped by AS, ascending within each AS: the key ASN * n + row
    # is unique, so an unstable sort gives the stable order.
    key = dataset.asns[mapped].astype(np.int64) * dataset.n_nodes + mapped
    rows = mapped[np.argsort(key)]
    starts = np.flatnonzero(_run_starts(dataset.asns[rows]))
    asns = dataset.asns[rows[starts]]
    offsets = np.append(starts, rows.size)
    n_nodes = np.diff(offsets)
    group = np.repeat(np.arange(asns.size), n_nodes)
    lats = dataset.lats[rows]
    lons = dataset.lons[rows]

    # Distinct (AS, point) pairs as integer codes over the dataset's
    # distinct points: only points are rounded and projected, and the
    # per-AS sorts below are integer sorts of these pairs.
    plats, plons, _, inverse = dataset.points
    n_points = plats.size
    pair_group, pair_point = np.divmod(
        _distinct_keys(group, inverse[rows], n_points), n_points
    )

    rank, _ = _dense_rank(
        np.round(plats, LOCATION_DECIMALS), np.round(plons, LOCATION_DECIMALS)
    )
    located = _distinct_keys(pair_group, rank[pair_point], n_points)
    n_locations = np.bincount(located // n_points, minlength=asns.size)

    # Distinct projected points per AS, sorted by (x, y) and deduped
    # exactly as convex_hull does.  Only the points of mapped rows are
    # projected (an unmapped node's position is never checked).
    used = np.zeros(n_points, dtype=bool)
    used[pair_point] = True
    x, y = WORLD_ALBERS.project(plats[used], plons[used])
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise GeoError("points must be finite")
    slot = np.cumsum(used) - 1
    rank, first = _dense_rank(x, y)
    hull_group, hull_rank = np.divmod(
        _distinct_keys(pair_group, rank[slot[pair_point]], n_points), n_points
    )
    hull_point = first[hull_rank]
    hull_area = grouped_hull_areas(
        x[hull_point], y[hull_point], hull_group, asns.size
    )

    # Row-order sums: bincount adds each AS's rows in ascending row order.
    centroid_lat = np.bincount(group, weights=lats, minlength=asns.size) / n_nodes
    centroid_lon = np.bincount(group, weights=lons, minlength=asns.size) / n_nodes

    return AsTable(
        asns=asns,
        n_nodes=n_nodes.astype(np.int64),
        n_locations=n_locations.astype(np.int64),
        degree=_as_degree(dataset, rows, group, asns.size),
        centroid_lat=centroid_lat,
        centroid_lon=centroid_lon,
        hull_area=hull_area,
        rows=rows,
        offsets=offsets,
    )


def _as_degree(
    dataset: MappedDataset, rows: np.ndarray, group: np.ndarray, n_ases: int
) -> np.ndarray:
    """AS-graph degree per table position: distinct AS adjacencies,
    counted once however many interdomain links realise them."""
    if dataset.n_links == 0:
        return np.zeros(n_ases, dtype=np.int64)
    position = np.full(dataset.n_nodes, -1, dtype=np.int64)
    position[rows] = group
    a, b = position[dataset.links].T
    inter = (a >= 0) & (b >= 0) & (a != b)
    a, b = a[inter], b[inter]
    lo, hi = np.divmod(
        _distinct_keys(np.minimum(a, b), np.maximum(a, b), n_ases), n_ases
    )
    return np.bincount(lo, minlength=n_ases) + np.bincount(hi, minlength=n_ases)


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
