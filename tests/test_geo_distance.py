"""Tests for repro.geo.distance (great-circle geometry)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeoError
from repro.geo.coords import EARTH_RADIUS_MILES, GeoPoint
from repro.geo.distance import (
    HaversineRows,
    great_circle_miles,
    haversine_matrix_radians,
    haversine_miles,
    haversine_miles_radians,
    haversine_operands,
    link_lengths_miles,
    pairwise_distance_matrix,
)

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)


class TestKnownDistances:
    def test_zero_distance(self):
        assert haversine_miles(40.0, -74.0, 40.0, -74.0) == pytest.approx(0.0)

    def test_new_york_to_los_angeles(self):
        # Great-circle NYC-LA is about 2,445 statute miles.
        d = great_circle_miles(GeoPoint(40.71, -74.01), GeoPoint(34.05, -118.24))
        assert d == pytest.approx(2445, rel=0.02)

    def test_london_to_paris(self):
        d = great_circle_miles(GeoPoint(51.51, -0.13), GeoPoint(48.86, 2.35))
        assert d == pytest.approx(213, rel=0.03)

    def test_equator_degree_of_longitude(self):
        # One degree of longitude at the equator ~ 69.1 miles.
        d = haversine_miles(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(69.1, rel=0.01)

    def test_pole_to_pole_is_half_circumference(self):
        d = haversine_miles(90.0, 0.0, -90.0, 0.0)
        assert d == pytest.approx(np.pi * EARTH_RADIUS_MILES, rel=1e-6)

    def test_antipodal_points(self):
        d = haversine_miles(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(np.pi * EARTH_RADIUS_MILES, rel=1e-6)


class TestBroadcasting:
    def test_scalar_against_array(self):
        lats = np.array([0.0, 10.0, 20.0])
        lons = np.zeros(3)
        d = haversine_miles(0.0, 0.0, lats, lons)
        assert d.shape == (3,)
        assert d[0] == pytest.approx(0.0)
        assert d[1] < d[2]

    def test_array_against_array(self):
        a = np.array([0.0, 45.0])
        d = haversine_miles(a, np.zeros(2), a, np.zeros(2))
        assert np.allclose(d, 0.0)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(latitudes, longitudes, latitudes, longitudes),
            min_size=1,
            max_size=40,
        )
    )
    def test_symmetry(self, quads):
        # Exact pair counting bins each unordered pair once, in either
        # orientation; that is only sound if d(a, b) == d(b, a) exactly,
        # for scalars, flat arrays and broadcast blocks alike.
        lat1, lon1, lat2, lon2 = np.array(quads, dtype=float).T
        forward = haversine_miles(lat1, lon1, lat2, lon2)
        assert np.array_equal(forward, haversine_miles(lat2, lon2, lat1, lon1))
        block = haversine_miles(
            lat1[:, None], lon1[:, None], lat2[None, :], lon2[None, :]
        )
        flipped = haversine_miles(
            lat2[:, None], lon2[:, None], lat1[None, :], lon1[None, :]
        )
        assert np.array_equal(block, flipped.T)
        assert np.array_equal(np.diagonal(block), forward)
        assert haversine_miles(
            float(lat1[0]), float(lon1[0]), float(lat2[0]), float(lon2[0])
        ) == forward[0]

    @given(latitudes, longitudes, latitudes, longitudes)
    def test_non_negative_and_bounded(self, lat1, lon1, lat2, lon2):
        d = haversine_miles(lat1, lon1, lat2, lon2)
        assert 0.0 <= d <= np.pi * EARTH_RADIUS_MILES + 1e-6

    @given(latitudes, longitudes)
    def test_identity(self, lat, lon):
        assert haversine_miles(lat, lon, lat, lon) == pytest.approx(0.0, abs=1e-6)

    @given(
        latitudes, longitudes, latitudes, longitudes, latitudes, longitudes
    )
    def test_triangle_inequality(self, la, lo, lb, lob, lc, loc):
        ab = haversine_miles(la, lo, lb, lob)
        bc = haversine_miles(lb, lob, lc, loc)
        ac = haversine_miles(la, lo, lc, loc)
        assert ac <= ab + bc + 1e-6


class TestRadiansHelper:
    """haversine_miles_radians on precomputed operands == haversine_miles."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(latitudes, longitudes), min_size=1, max_size=40),
        st.lists(st.tuples(latitudes, longitudes), min_size=1, max_size=40),
    )
    def test_bitwise_equal(self, points, others):
        lats, lons = np.array(points, dtype=float).T
        array_ops = haversine_operands(lats, lons)
        # Scalar against array: the array's operands are computed once
        # and reused for every scalar, as the generator's loops do.
        for lat, lon in zip(lats, lons):
            for scalar_lat, scalar_lon in ((lat, lon), (float(lat), float(lon))):
                expected = haversine_miles(scalar_lat, scalar_lon, lats, lons)
                got = haversine_miles_radians(
                    *haversine_operands(scalar_lat, scalar_lon), *array_ops
                )
                assert np.array_equal(got, expected)
        # Array against array (equal lengths).
        other_lats, other_lons = np.array(others, dtype=float).T
        n = min(lats.size, other_lats.size)
        expected = haversine_miles(
            lats[:n], lons[:n], other_lats[:n], other_lons[:n]
        )
        got = haversine_miles_radians(
            *haversine_operands(lats[:n], lons[:n]),
            *haversine_operands(other_lats[:n], other_lons[:n]),
        )
        assert np.array_equal(got, expected)


class TestRowForms:
    """Matrix rows and HaversineRows rows equal haversine_miles bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(latitudes, longitudes), min_size=1, max_size=40),
        st.lists(st.tuples(latitudes, longitudes), min_size=1, max_size=40),
    )
    def test_bitwise_equal(self, points, others):
        lats, lons = np.array(points, dtype=float).T
        other_lats, other_lons = np.array(others, dtype=float).T
        matrix = haversine_matrix_radians(
            haversine_operands(lats, lons), haversine_operands(other_lats, other_lons)
        )
        rows = HaversineRows(lats, lons)
        for i, (lat, lon) in enumerate(zip(lats.tolist(), lons.tolist())):
            # Each source converted on its own, as a Python float.
            assert np.array_equal(
                matrix[i], haversine_miles(lat, lon, other_lats, other_lons)
            )
            assert np.array_equal(rows.row(i), haversine_miles(lat, lon, lats, lons))

    def test_row_buffer_is_reused(self):
        rows = HaversineRows(np.array([0.0, 10.0]), np.array([0.0, 0.0]))
        first = rows.row(0)
        assert first[1] > 0
        assert rows.row(1) is first


class TestPairwiseMatrix:
    def test_matrix_shape_and_diagonal(self):
        lats = np.array([0.0, 10.0, 20.0])
        lons = np.array([0.0, 10.0, 20.0])
        m = pairwise_distance_matrix(lats, lons)
        assert m.shape == (3, 3)
        assert np.allclose(np.diag(m), 0.0)

    def test_matrix_symmetry(self):
        rng = np.random.default_rng(0)
        lats = rng.uniform(-60, 60, 8)
        lons = rng.uniform(-170, 170, 8)
        m = pairwise_distance_matrix(lats, lons)
        assert np.allclose(m, m.T)

    def test_rejects_mismatched_input(self):
        with pytest.raises(GeoError):
            pairwise_distance_matrix(np.zeros(3), np.zeros(4))


class TestLinkLengths:
    def test_lengths_match_pointwise_distance(self):
        lats = np.array([0.0, 0.0, 10.0])
        lons = np.array([0.0, 1.0, 1.0])
        a = np.array([0, 1])
        b = np.array([1, 2])
        lengths = link_lengths_miles(lats, lons, a, b)
        assert lengths[0] == pytest.approx(haversine_miles(0, 0, 0, 1))
        assert lengths[1] == pytest.approx(haversine_miles(0, 1, 10, 1))

    def test_empty_links(self):
        lengths = link_lengths_miles(
            np.array([0.0]), np.array([0.0]), np.array([], dtype=int),
            np.array([], dtype=int),
        )
        assert lengths.shape == (0,)

    def test_out_of_range_index_raises(self):
        with pytest.raises(GeoError):
            link_lengths_miles(
                np.array([0.0]), np.array([0.0]), np.array([0]), np.array([1])
            )
