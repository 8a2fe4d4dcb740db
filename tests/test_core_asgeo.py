"""Tests for repro.core.asgeo (Section VI analyses)."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.table import UNMAPPED_ASN
from repro.core.asgeo import (
    as_size_measures,
    as_table,
    hull_areas,
    hull_vs_size,
    link_domain_row,
    link_domain_table,
    size_correlations,
    size_distributions,
)
from repro.datasets.mapped import MappedDataset
from repro.errors import AnalysisError, GeoError
from repro.geo.hull import convex_hull_area
from repro.geo.projection import WORLD_ALBERS
from repro.geo.regions import EUROPE, STUDY_REGIONS, US


def _dataset() -> MappedDataset:
    """Three ASes: compact (1), two-site (2), dispersed (3)."""
    lats = np.array([37.7, 37.71, 37.72, 40.7, 48.86, 35.0, -33.87, 51.51, 40.0])
    lons = np.array(
        [-122.4, -122.41, -122.42, -74.0, 2.35, 139.0, 151.21, -0.13, -100.0]
    )
    asns = np.array([1, 1, 1, 2, 2, 3, 3, 3, 3], dtype=np.int64)
    links = np.array(
        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 7], [5, 6], [6, 7], [7, 8], [0, 5]],
        dtype=np.intp,
    )
    return MappedDataset(
        label="asgeo",
        kind="skitter",
        addresses=np.arange(9, dtype=np.int64),
        lats=lats,
        lons=lons,
        asns=asns,
        links=links,
    )


def _row_order_sum(values: np.ndarray) -> float:
    """Left-to-right float sum of ``values``: the centroid's definition.

    Neither ``np.mean`` (pairwise summation) nor, from Python 3.12 on,
    the builtin ``sum`` (compensated summation) adds in plain row order.
    """
    return functools.reduce(operator.add, values.tolist(), 0.0)


def _naive_as_table(dataset: MappedDataset) -> dict[str, list]:
    """The reference for :func:`as_table`: every AS on its own rows."""
    x, y = WORLD_ALBERS.project(dataset.lats, dataset.lons)
    edges = {
        (min(a, b), max(a, b))
        for a, b in dataset.asns[dataset.links].tolist()
        if a != b and UNMAPPED_ASN not in (a, b)
    }
    ref: dict[str, list] = {
        name: []
        for name in (
            "asns", "n_nodes", "n_locations", "degree",
            "centroid_lat", "centroid_lon", "hull_area", "nodes",
        )
    }
    for asn in np.unique(dataset.asns[dataset.asns != UNMAPPED_ASN]).tolist():
        nodes = np.flatnonzero(dataset.asns == asn)
        keys = np.column_stack(
            [np.round(dataset.lats[nodes], 1), np.round(dataset.lons[nodes], 1)]
        )
        ref["asns"].append(asn)
        ref["n_nodes"].append(nodes.size)
        ref["n_locations"].append(np.unique(keys, axis=0).shape[0])
        ref["degree"].append(sum(asn in edge for edge in edges))
        ref["centroid_lat"].append(_row_order_sum(dataset.lats[nodes]) / nodes.size)
        ref["centroid_lon"].append(_row_order_sum(dataset.lons[nodes]) / nodes.size)
        ref["hull_area"].append(
            convex_hull_area(np.column_stack([x[nodes], y[nodes]]))
        )
        ref["nodes"].append(nodes.tolist())
    return ref


#: A few exact coordinates shared between nodes (duplicate points), and
#: one meridian (its points project onto one straight line).
_SITES = [(37.7, -122.4), (40.7, -74.0), (51.5, -0.13), (-33.9, 151.2)]
_MERIDIAN_LON = -95.0


@st.composite
def _as_datasets(draw) -> MappedDataset:
    n = draw(st.integers(0, 30))
    unmapped_only = draw(st.booleans()) and n > 0
    pool = [UNMAPPED_ASN] if unmapped_only else [UNMAPPED_ASN, 3, 7, 11, 700]
    asns = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    lat = st.floats(-89.9, 89.9, allow_nan=False)
    lon = st.floats(-179.9, 179.9, allow_nan=False)
    point = st.one_of(
        st.sampled_from(_SITES),
        st.tuples(lat, st.just(_MERIDIAN_LON)),
        st.tuples(lat, lon),
    )
    points = draw(st.lists(point, min_size=n, max_size=n))
    links = []
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        links = [
            (i, j) for i, j in draw(st.lists(pair, max_size=2 * n)) if i != j
        ]
    return MappedDataset(
        label="drawn",
        kind="skitter",
        addresses=np.arange(n, dtype=np.int64),
        lats=np.array([p[0] for p in points], dtype=float),
        lons=np.array([p[1] for p in points], dtype=float),
        asns=np.array(asns, dtype=np.int64),
        links=np.array(links, dtype=np.intp).reshape(-1, 2),
    )


class TestAsTable:
    @settings(max_examples=200, deadline=None)
    @given(_as_datasets())
    def test_equals_naive_reference(self, dataset):
        table = as_table(dataset)
        ref = _naive_as_table(dataset)
        for name in (
            "asns", "n_nodes", "n_locations", "degree",
            "centroid_lat", "centroid_lon", "hull_area",
        ):
            assert getattr(table, name).tolist() == ref[name], name
        nodes = [table.nodes(i).tolist() for i in range(table.n_ases)]
        assert nodes == ref["nodes"]

    def test_empty_and_unmapped_only_datasets(self):
        for asns in ([], [UNMAPPED_ASN, UNMAPPED_ASN]):
            n = len(asns)
            table = as_table(
                MappedDataset(
                    label="e", kind="skitter",
                    addresses=np.arange(n, dtype=np.int64),
                    lats=np.full(n, 10.0), lons=np.arange(n, dtype=float),
                    asns=np.array(asns, dtype=np.int64),
                    links=np.array([[0, 1]] if n else [], dtype=np.intp).reshape(-1, 2),
                )
            )
            assert table.n_ases == 0
            assert table.hull_area.shape == table.degree.shape == (0,)
            assert table.offsets.tolist() == [0]

    @pytest.mark.parametrize("lat", [np.nan, 95.0])
    def test_only_mapped_positions_are_projected(self, lat):
        # An unmapped node is no AS's point: its position is neither
        # projected nor checked, while a mapped one at it still raises.
        ds = _dataset()
        reference = as_table(ds)

        def with_node(asn):
            return MappedDataset(
                label=ds.label, kind=ds.kind,
                addresses=np.arange(ds.n_nodes + 1, dtype=np.int64),
                lats=np.append(ds.lats, lat), lons=np.append(ds.lons, 0.0),
                asns=np.append(ds.asns, asn), links=ds.links,
            )

        table = as_table(with_node(UNMAPPED_ASN))
        for name in ("asns", "n_nodes", "n_locations", "degree", "centroid_lat",
                     "centroid_lon", "hull_area", "rows", "offsets"):
            assert getattr(table, name).tolist() == getattr(reference, name).tolist()
        with pytest.raises(GeoError):
            as_table(with_node(3))

    def test_views_share_the_table(self):
        ds = _dataset()
        table = as_table(ds)
        sizes = as_size_measures(ds)
        assert sizes.degree.tolist() == table.degree.tolist()
        assert hull_areas(ds).areas.tolist() == table.hull_area.tolist()
        assert table.find(3) == 2 and table.find(4) == -1


class TestAsSizeMeasures:
    def test_node_counts(self):
        table = as_size_measures(_dataset())
        by_asn = dict(zip(table.asns.tolist(), table.n_nodes.tolist()))
        assert by_asn == {1: 3, 2: 2, 3: 4}

    def test_location_counts(self):
        table = as_size_measures(_dataset())
        by_asn = dict(zip(table.asns.tolist(), table.n_locations.tolist()))
        # AS 1's three nodes share one rounded location.
        assert by_asn[1] == 1
        assert by_asn[2] == 2
        assert by_asn[3] == 4

    def test_degrees_from_as_graph(self):
        table = as_size_measures(_dataset())
        by_asn = dict(zip(table.asns.tolist(), table.degree.tolist()))
        # Edges: (1,2) via link 2-3, (2,3) via 4-7, (1,3) via 0-5.
        assert by_asn == {1: 2, 2: 2, 3: 2}

    def test_unmapped_group_omitted(self):
        ds = _dataset()
        asns = ds.asns.copy()
        asns[8] = UNMAPPED_ASN
        ds2 = MappedDataset(
            label="x", kind="skitter", addresses=ds.addresses, lats=ds.lats,
            lons=ds.lons, asns=asns, links=ds.links,
        )
        table = as_size_measures(ds2)
        assert UNMAPPED_ASN not in table.asns.tolist()

    def test_empty_dataset_raises(self):
        ds = MappedDataset(
            label="e", kind="skitter",
            addresses=np.empty(0, dtype=np.int64),
            lats=np.empty(0), lons=np.empty(0),
            asns=np.empty(0, dtype=np.int64),
            links=np.empty((0, 2), dtype=np.intp),
        )
        with pytest.raises(AnalysisError):
            as_size_measures(ds)


class TestDistributionsAndCorrelations:
    def test_ccdf_points_finite(self, pipeline_small):
        table = as_size_measures(pipeline_small.dataset("IxMapper", "Skitter"))
        dists = size_distributions(table)
        for lx, ly in (dists.nodes_ccdf, dists.locations_ccdf, dists.degree_ccdf):
            assert np.all(np.isfinite(lx)) and np.all(np.isfinite(ly))

    def test_long_tails_on_pipeline(self, pipeline_small):
        table = as_size_measures(pipeline_small.dataset("IxMapper", "Skitter"))
        dists = size_distributions(table)
        assert dists.decades["nodes"] >= 1.5
        assert dists.decades["locations"] >= 1.0

    def test_correlations_positive_on_pipeline(self, pipeline_small):
        table = as_size_measures(pipeline_small.dataset("IxMapper", "Skitter"))
        corr = size_correlations(table)
        assert corr.pearson_nodes_locations > 0.5
        assert corr.pearson_nodes_degree > 0.3
        assert corr.pearson_locations_degree > 0.3
        assert corr.spearman_nodes_locations > 0.3

    def test_nodes_locations_is_tightest_pair(self, pipeline_small):
        # Paper: the interfaces~locations scatter is the tightest.
        table = as_size_measures(pipeline_small.dataset("IxMapper", "Skitter"))
        corr = size_correlations(table)
        assert corr.pearson_nodes_locations >= corr.pearson_locations_degree - 0.05


class TestHulls:
    def test_compact_as_zero_extent(self):
        hulls = hull_areas(_dataset())
        by_asn = dict(zip(hulls.asns.tolist(), hulls.areas.tolist()))
        # AS 1 is a tight metro cluster: tiny but positive hull; AS 2 has
        # two sites (zero area); AS 3 spans the globe.
        assert by_asn[2] == 0.0
        assert by_asn[3] > 1e6
        assert by_asn[1] < 100.0

    def test_zero_fraction(self):
        hulls = hull_areas(_dataset())
        assert 0.0 <= hulls.zero_fraction <= 1.0

    def test_region_restriction_shrinks_hulls(self):
        world = hull_areas(_dataset())
        us_only = hull_areas(_dataset(), region=US)
        assert us_only.areas.max() <= world.areas.max()

    def test_cdf_points_monotone(self, pipeline_small):
        hulls = hull_areas(pipeline_small.dataset("IxMapper", "Skitter"))
        areas, p = hulls.cdf_points()
        assert np.all(np.diff(areas) >= 0)
        assert np.all(np.diff(p) >= 0)
        assert p[-1] == pytest.approx(1.0)

    def test_majority_zero_extent_on_pipeline(self, pipeline_small):
        # Paper Figure 9: ~80% of ASes have no extent at all.
        hulls = hull_areas(pipeline_small.dataset("IxMapper", "Skitter"))
        assert hulls.zero_fraction > 0.4


class TestHullVsSize:
    def test_summary_fields(self, pipeline_small):
        ds = pipeline_small.dataset("IxMapper", "Skitter")
        table = as_size_measures(ds)
        hulls = hull_areas(ds)
        summary = hull_vs_size(table, hulls, size_measure="nodes", cutoff=100)
        assert summary.max_area > 0
        assert summary.sizes.shape == summary.areas.shape

    def test_large_ases_widely_dispersed(self, pipeline_small):
        ds = pipeline_small.dataset("IxMapper", "Skitter")
        table = as_size_measures(ds)
        hulls = hull_areas(ds)
        summary = hull_vs_size(table, hulls, size_measure="nodes", cutoff=200)
        if (summary.sizes >= 200).any():
            assert summary.dispersal_ratio > 0.2

    def test_unknown_measure_raises(self, pipeline_small):
        ds = pipeline_small.dataset("IxMapper", "Skitter")
        table = as_size_measures(ds)
        hulls = hull_areas(ds)
        with pytest.raises(AnalysisError):
            hull_vs_size(table, hulls, size_measure="mass")

    def test_mismatched_tables_raise(self):
        ds = _dataset()
        table = as_size_measures(ds)
        # Europe holds nodes of ASes 2 and 3 only, so the hull table
        # covers a different AS set than the world-wide size table.
        hulls = hull_areas(ds.restrict(EUROPE))
        with pytest.raises(AnalysisError):
            hull_vs_size(table, hulls)


class TestLinkDomains:
    def test_counts_and_lengths(self):
        row = link_domain_row(_dataset(), "World")
        # Interdomain: links 2-3? no - 2,3 are AS1->AS2 cross... recount:
        # links (2,3): AS1-AS2 inter; (4,7): AS2-AS3 inter; (0,5): AS1-AS3
        # inter; intradomain: (0,1), (1,2), (3,4)? 3 is AS2, 4 is AS2 ->
        # intra; (5,6), (6,7), (7,8) AS3 intra.
        assert row.n_interdomain == 3
        assert row.n_intradomain == 6
        assert row.intradomain_fraction == pytest.approx(6 / 9)

    def test_region_rows(self, pipeline_small):
        ds = pipeline_small.dataset("IxMapper", "Skitter")
        rows = link_domain_table(ds, STUDY_REGIONS)
        assert rows[0].region == "World"
        assert rows[0].intradomain_fraction > 0.6

    def test_interdomain_longer_on_pipeline(self, pipeline_small):
        ds = pipeline_small.dataset("IxMapper", "Skitter")
        row = link_domain_row(ds, "World")
        assert row.mean_interdomain_miles > row.mean_intradomain_miles

    def test_no_links_raises(self):
        ds = MappedDataset(
            label="n", kind="skitter",
            addresses=np.array([1], dtype=np.int64),
            lats=np.array([0.0]), lons=np.array([0.0]),
            asns=np.array([1], dtype=np.int64),
            links=np.empty((0, 2), dtype=np.intp),
        )
        with pytest.raises(AnalysisError):
            link_domain_row(ds, "empty")

    def test_europe_restriction(self, pipeline_small):
        ds = pipeline_small.dataset("IxMapper", "Skitter").restrict(EUROPE)
        if ds.n_links:
            row = link_domain_row(ds, "Europe")
            assert row.n_interdomain + row.n_intradomain <= ds.n_links
