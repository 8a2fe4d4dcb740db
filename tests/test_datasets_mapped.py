"""Tests for repro.datasets.mapped."""

import pickle

import numpy as np
import pytest

from repro.bgp.table import UNMAPPED_ASN
from repro.core.asgeo import as_table
from repro.datasets.mapped import MappedDataset
from repro.errors import DatasetError
from repro.geo.coords import distinct_points
from repro.geo.regions import Region


def _dataset() -> MappedDataset:
    """Six nodes: 3 in a west cluster (AS 1), 3 east (AS 2, one unmapped)."""
    return MappedDataset(
        label="test",
        kind="skitter",
        addresses=np.arange(6, dtype=np.int64),
        lats=np.array([37.7, 37.8, 37.7, 40.7, 40.0, 40.01]),
        lons=np.array([-122.4, -122.3, -122.4, -74.0, -75.2, -75.2]),
        asns=np.array([1, 1, 1, 2, 2, UNMAPPED_ASN], dtype=np.int64),
        links=np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], dtype=np.intp),
    )


class TestValidation:
    def test_valid_dataset(self):
        ds = _dataset()
        assert ds.n_nodes == 6 and ds.n_links == 5

    def test_parallel_arrays_enforced(self):
        with pytest.raises(DatasetError):
            MappedDataset(
                label="bad", kind="skitter",
                addresses=np.arange(3, dtype=np.int64),
                lats=np.zeros(2), lons=np.zeros(3),
                asns=np.zeros(3, dtype=np.int64),
                links=np.empty((0, 2), dtype=np.intp),
            )

    def test_link_index_bounds_enforced(self):
        with pytest.raises(DatasetError):
            MappedDataset(
                label="bad", kind="skitter",
                addresses=np.arange(2, dtype=np.int64),
                lats=np.zeros(2), lons=np.zeros(2),
                asns=np.zeros(2, dtype=np.int64),
                links=np.array([[0, 5]], dtype=np.intp),
            )

    def test_self_loop_rejected(self):
        with pytest.raises(DatasetError):
            MappedDataset(
                label="bad", kind="skitter",
                addresses=np.arange(2, dtype=np.int64),
                lats=np.zeros(2), lons=np.zeros(2),
                asns=np.zeros(2, dtype=np.int64),
                links=np.array([[1, 1]], dtype=np.intp),
            )


class TestImmutability:
    @pytest.mark.parametrize("column", ["addresses", "lats", "lons", "asns", "links"])
    def test_columns_are_read_only(self, column):
        ds = _dataset()
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, column)[0] = 1

    def test_points_are_memoised_and_read_only(self):
        ds = _dataset()
        points = ds.points
        assert ds.points is points
        expected = distinct_points(ds.lats, ds.lons)
        for got, want in zip(points, expected):
            assert got.tolist() == want.tolist()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0

    def test_pickled_copy_is_read_only_without_memo(self):
        ds = _dataset()
        ds.points
        copy = pickle.loads(pickle.dumps(ds))
        assert "_points" not in vars(copy)
        assert copy.lats.tolist() == ds.lats.tolist()
        with pytest.raises(ValueError, match="read-only"):
            copy.lats[0] = 0.0


class TestLocations:
    def test_distinct_locations_rounded(self):
        ds = _dataset()
        # Nodes 0 and 2 share a rounded location; 4 and 5 share one.
        assert ds.n_locations == 4

    def test_location_keys_shape(self):
        keys = _dataset().location_keys()
        assert keys.shape == (6, 2)


class TestLinkGeometry:
    def test_link_lengths(self):
        lengths = _dataset().link_lengths()
        assert lengths.shape == (5,)
        assert lengths[0] < 20  # intra-cluster
        assert lengths[2] > 2000  # coast to coast

    def test_interdomain_mask_excludes_unmapped(self):
        ds = _dataset()
        inter = ds.interdomain_mask()
        intra = ds.intradomain_mask()
        # Link (2,3) crosses AS 1 -> AS 2; link (4,5) touches unmapped.
        assert inter.tolist() == [False, False, True, False, False]
        assert intra.tolist() == [True, True, False, True, False]


class TestRestrict:
    def test_restrict_keeps_inside_nodes(self):
        ds = _dataset()
        west = Region("west", north=45.0, south=30.0, west=-130.0, east=-100.0)
        sub = ds.restrict(west)
        assert sub.n_nodes == 3
        assert sub.n_links == 2  # links among nodes 0, 1, 2

    def test_restrict_reindexes_links(self):
        ds = _dataset()
        east = Region("east", north=45.0, south=30.0, west=-80.0, east=-70.0)
        sub = ds.restrict(east)
        assert sub.n_nodes == 3
        assert sub.links.max() < sub.n_nodes
        sub_lengths = sub.link_lengths()
        assert np.all(sub_lengths >= 0)

    def test_restrict_label(self):
        ds = _dataset()
        region = Region("east", north=45.0, south=30.0, west=-80.0, east=-70.0)
        assert "east" in ds.restrict(region).label

    def test_empty_restriction(self):
        ds = _dataset()
        nowhere = Region("nowhere", north=-60.0, south=-70.0, west=0.0, east=10.0)
        sub = ds.restrict(nowhere)
        assert sub.n_nodes == 0 and sub.n_links == 0


class TestAsStructure:
    def test_known_asns_excludes_sentinel(self):
        # One degree per mapped ASN (1 and 2); link (4, 5) to the
        # unmapped node adds no AS-graph edge.
        table = as_table(_dataset())
        assert table.asns.tolist() == [1, 2]
        assert table.degree.tolist() == [1, 1]
